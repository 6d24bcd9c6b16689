package hadas

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/persist"
	"repro/internal/transport"
	"repro/internal/value"
)

// This file pins that what an install, an agent hop and a Home restore
// allocate does not depend on how many APOs the site holds. A step that
// enumerates or copies Home (a mirrored view, a manifest decode, a
// republished read snapshot) shows up here as a failing test, not as a
// benchmark drifting three PRs later.

// residents builds n small APOs for a site, named from first upward.
func residents(s *Site, first, n int) map[string]*core.Object {
	apos := make(map[string]*core.Object, n)
	for i := first; i < first+n; i++ {
		b := s.NewAPOBuilder("Resident")
		b.ExtData("n", value.NewInt(int64(i)))
		apos[fmt.Sprintf("resident-%05d", i)] = b.MustBuild()
	}
	return apos
}

// populate fills a site's Home with n small resident APOs and checkpoints
// it, so the persisted manifest has n entries too.
func populate(t *testing.T, s *Site, n int) {
	t.Helper()
	if err := s.AddAPOs(residents(s, 0, n)); err != nil {
		t.Fatal(err)
	}
	if err := s.PersistAll(); err != nil {
		t.Fatal(err)
	}
}

// mallocs reports the heap allocations made while f runs, and their bytes.
func mallocs(f func()) (count, bytes float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs), float64(after.TotalAlloc - before.TotalAlloc)
}

// within reports whether a and b differ by less than frac of the smaller.
func within(a, b, frac float64) bool {
	lo, hi := min(a, b), max(a, b)
	return hi-lo < frac*lo
}

// installBytes measures the bytes one AddAPO allocates on a site that
// already holds n APOs (the objects are built beforehand).
func installBytes(t *testing.T, n int) float64 {
	t.Helper()
	s := newMigSite(t, transport.NewInProcNet(), "s", persist.NewMemStore())
	if err := s.AddAPOs(residents(s, 0, n)); err != nil {
		t.Fatal(err)
	}
	const measured = 512
	more := residents(s, n, measured)
	_, bytes := mallocs(func() {
		if err := s.AddAPOs(more); err != nil {
			t.Fatal(err)
		}
	})
	return bytes / measured
}

// An install that copies part of Home — the per-shard read snapshot every
// mutation used to republish — allocates in proportion to the site: 1 010
// and 13 664 B between these two sizes. What remains is the amortized
// growth of three hash tables, the same at both.
func TestHomeInstallIsLinear(t *testing.T) {
	small, large := installBytes(t, 1024), installBytes(t, 16384)
	t.Logf("bytes per AddAPO: %.0f at 1024 resident APOs, %.0f at 16384", small, large)
	if large > 1.5*small {
		t.Errorf("AddAPO allocates %.0f B at 1024 resident APOs and %.0f B at 16384: an install pays for the size of Home", small, large)
	}
}

// hopMallocs measures allocations (count and bytes) per courier round trip
// between two sites that each hold residents APOs.
func hopMallocs(t *testing.T, residents int) (count, bytes float64) {
	t.Helper()
	net := transport.NewInProcNet()
	a := newMigSite(t, net, "a", persist.NewMemStore())
	b := newMigSite(t, net, "b", persist.NewMemStore())
	link(t, a, "b")
	link(t, b, "a")
	populate(t, a, residents)
	populate(t, b, residents)
	inertAgent(t, a, "courier")

	roundTrips := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := a.DispatchAgent("courier", "b"); err != nil {
				t.Fatal(err)
			}
			if _, err := b.DispatchAgent("courier", "a"); err != nil {
				t.Fatal(err)
			}
		}
	}
	roundTrips(4) // warm connections, caches and the first-use manifest load
	const measured = 32
	count, bytes = mallocs(func() { roundTrips(measured) })
	return count / measured, bytes / measured
}

func TestHopDoesNotScaleWithHome(t *testing.T) {
	smallN, smallB := hopMallocs(t, 64)
	largeN, largeB := hopMallocs(t, 4096)
	t.Logf("per round trip: %.0f allocations, %.0f B with 64 resident APOs; %.0f, %.0f B with 4096", smallN, smallB, largeN, largeB)
	if !within(smallN, largeN, 0.10) || !within(smallB, largeB, 0.05) {
		t.Errorf("a round trip allocates %.0f times, %.0f B with 64 resident APOs and %.0f times, %.0f B with 4096: a hop pays for the size of Home",
			smallN, smallB, largeN, largeB)
	}
}

// bootstrapMallocs measures what BootstrapHome allocates per restored APO
// on a restarted site whose checkpoint holds n APOs.
func bootstrapMallocs(t *testing.T, n int) (count, bytes float64) {
	t.Helper()
	net := transport.NewInProcNet()
	s := newMigSite(t, net, "s", persist.NewMemStore())
	populate(t, s, n)
	s2 := restartSite(t, net, s)
	var restored []string
	count, bytes = mallocs(func() { restored = bootstrap(t, s2) })
	if len(restored) != n {
		t.Fatalf("restored %d of %d APOs", len(restored), n)
	}
	return count / float64(n), bytes / float64(n)
}

// An enumeration (or a copy) per install costs a constant number of
// allocations whose size grows with Home, so the restore is held to both:
// count and bytes per restored APO within 10 % between these two sizes (an
// enumeration per install was 5× in bytes).
func TestBootstrapHomeIsLinear(t *testing.T) {
	smallN, smallB := bootstrapMallocs(t, 512)
	largeN, largeB := bootstrapMallocs(t, 4096)
	t.Logf("per restored APO: %.1f allocations, %.0f B at 512 APOs; %.1f, %.0f B at 4096", smallN, smallB, largeN, largeB)
	if !within(smallN, largeN, 0.10) || !within(smallB, largeB, 0.10) {
		t.Errorf("BootstrapHome per APO: %.1f allocations, %.0f B at 512 APOs; %.1f, %.0f B at 4096: restoring Home is not linear",
			smallN, smallB, largeN, largeB)
	}
}
