//go:build race

package repro

// Under the race detector some values escape that do not otherwise, so
// exact allocation counts above zero are pinned in the plain build only.
func init() { raceBuild = true }
