//go:build race

package hadas

// Under the race detector sync.Pool drops a share of what is put, so a
// pooled request buffer is sometimes allocated afresh and byte budgets that
// count on its reuse are pinned in the plain build only.
func init() { raceBuild = true }
