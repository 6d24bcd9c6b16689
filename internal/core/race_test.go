//go:build race

package core

// Under the race detector some values escape that do not otherwise (the id
// bytes crypto/rand fills, small counters), so exact allocation counts are
// pinned in the plain build only.
func init() { raceBuild = true }
