package hadas

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/persist"
	"repro/internal/transport"
	"repro/internal/wire"
)

// storedManifest decodes the Home manifest slot straight from the store,
// past the site's in-memory membership.
func storedManifest(t *testing.T, store persist.Store) []string {
	t.Helper()
	raw, err := store.Get(homeManifestSlot)
	if err != nil {
		t.Fatal(err)
	}
	var m manifestRecord
	if err := wire.DecodeRecord(raw, m.Fields); err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(m.APOs))
	for _, e := range m.APOs {
		names = append(names, e.Name)
	}
	return names
}

// TestConcurrentDeparturesScrubManifest: every agent of a checkpointed
// site leaves at once. The scrub was an unlocked read-modify-write of the
// manifest slot, so concurrent departures wrote back each other's names;
// the images were deleted all the same and the next BootstrapHome failed
// with "no such slot". With checkpoints racing the departures, PersistAll
// holds the manifest lock from enumerating Home to the end of its write,
// so whichever way each race falls no departed agent stays in the manifest.
func TestConcurrentDeparturesScrubManifest(t *testing.T) {
	// Ten attempts: on two cores a single one lost the race only three
	// times in four before the fix.
	for attempt := 0; attempt < 10; attempt++ {
		racingCheckpoints := attempt%2 == 1
		t.Run(fmt.Sprintf("checkpoints=%v", racingCheckpoints), func(t *testing.T) {
			const agents = 16
			net := transport.NewInProcNet()
			store := persist.NewMemStore()
			a := newMigSite(t, net, "a", store)
			b := newMigSite(t, net, "b", persist.NewMemStore())
			link(t, a, "b")
			inertAgent(t, a, "resident")
			for i := 0; i < agents; i++ {
				inertAgent(t, a, fmt.Sprintf("agent-%02d", i))
			}
			if err := a.PersistAll(); err != nil {
				t.Fatal(err)
			}

			var wg sync.WaitGroup
			for i := 0; i < agents; i++ {
				wg.Add(1)
				go func(name string) {
					defer wg.Done()
					if _, err := a.DispatchAgent(name, "b"); err != nil {
						t.Errorf("dispatch %s: %v", name, err)
					}
				}(fmt.Sprintf("agent-%02d", i))
			}
			if racingCheckpoints {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 4; i++ {
						if err := a.PersistAll(); err != nil {
							t.Errorf("checkpoint: %v", err)
						}
					}
				}()
			}
			wg.Wait()

			if got := storedManifest(t, store); len(got) != 1 || got[0] != "resident" {
				t.Fatalf("manifest after %d departures = %v, want [resident]", agents, got)
			}
			a2 := restartSite(t, net, a, "b")
			restored, err := a2.BootstrapHome()
			if err != nil {
				t.Fatalf("bootstrap after the departures: %v", err)
			}
			if len(restored) != 1 || restored[0] != "resident" {
				t.Fatalf("restored = %v, want [resident]", restored)
			}
			for i := 0; i < agents; i++ {
				if got := copies(fmt.Sprintf("agent-%02d", i), a2, b); got != 1 {
					t.Fatalf("agent-%02d copies = %d", i, got)
				}
			}
		})
	}
}

// TestDepartureDropsOnlyItsName: a checkpointed agent departs, and the
// manifest read back through its decoder names every other member under
// its own ID, sorted, and not the agent; its image slot goes with it.
// Mutants caught: the scrub leaving the name in, dropping a neighbour, or
// the manifest losing IDs or order on the way through the record.
func TestDepartureDropsOnlyItsName(t *testing.T) {
	net := transport.NewInProcNet()
	store := persist.NewMemStore()
	a := newMigSite(t, net, "a", store)
	newMigSite(t, net, "b", persist.NewMemStore())
	link(t, a, "b")
	want := []manifestEntry{{"alpha", inertAgent(t, a, "alpha").ID()}}
	walker := inertAgent(t, a, "walker").ID()
	want = append(want, manifestEntry{"zulu", inertAgent(t, a, "zulu").ID()})
	if err := a.PersistAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Get(walker.String()); err != nil {
		t.Fatalf("checkpoint holds no image of the walker: %v", err)
	}

	if _, err := a.DispatchAgent("walker", "b"); err != nil {
		t.Fatal(err)
	}
	raw, err := store.Get(homeManifestSlot)
	if err != nil {
		t.Fatal(err)
	}
	var m manifestRecord
	if err := wire.DecodeRecord(raw, m.Fields); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m.APOs, want) {
		t.Errorf("manifest after the departure = %v, want %v", m.APOs, want)
	}
	if _, err := store.Get(walker.String()); !errors.Is(err, persist.ErrNoSlot) {
		t.Errorf("departed agent's image slot: %v, want persist.ErrNoSlot", err)
	}
}

// TestScrubLoadsManifestOnFirstUse: a restarted site that installs one
// persisted APO without BootstrapHome has no membership in memory; the
// first departure still finds the slot and removes the name.
func TestScrubLoadsManifestOnFirstUse(t *testing.T) {
	net := transport.NewInProcNet()
	store := persist.NewMemStore()
	a := newMigSite(t, net, "a", store)
	b := newMigSite(t, net, "b", persist.NewMemStore())
	link(t, a, "b")
	inertAgent(t, a, "resident")
	id := inertAgent(t, a, "walker").ID()
	if err := a.PersistAll(); err != nil {
		t.Fatal(err)
	}

	a2 := restartSite(t, net, a, "b")
	raw, err := store.Get(id.String())
	if err != nil {
		t.Fatal(err)
	}
	if err := a2.installImage("walker", raw); err != nil {
		t.Fatal(err)
	}
	if _, err := a2.DispatchAgent("walker", "b"); err != nil {
		t.Fatal(err)
	}
	if got := storedManifest(t, store); len(got) != 1 || got[0] != "resident" {
		t.Fatalf("manifest = %v, want [resident]", got)
	}
	if restored := bootstrap(t, a2); len(restored) != 1 || restored[0] != "resident" {
		t.Fatalf("restored = %v, want [resident]", restored)
	}
	if got := copies("walker", a2, b); got != 1 {
		t.Fatalf("walker copies = %d", got)
	}
}

// TestDepartedRecordCarriesNoImage: once an agent has moved on, the
// arrival record it leaves behind — in the dedup table and in the journal
// — holds no image, and a restart replays it without resurrecting anything.
func TestDepartedRecordCarriesNoImage(t *testing.T) {
	net := transport.NewInProcNet()
	a := newMigSite(t, net, "a", persist.NewMemStore())
	b := newMigSite(t, net, "b", persist.NewMemStore())
	link(t, a, "b")
	link(t, b, "a")
	inertAgent(t, a, "walker")

	if _, err := a.DispatchAgent("walker", "b"); err != nil {
		t.Fatal(err)
	}
	mids := b.ArrivalRecords()
	if len(mids) != 1 {
		t.Fatalf("arrival records at b = %v", mids)
	}
	journaled := func() *arrival {
		raw, err := b.journal.Get(arrivalSlot(mids[0]))
		if err != nil {
			t.Fatal(err)
		}
		rec, err := decodeArrival(raw)
		if err != nil {
			t.Fatal(err)
		}
		return rec
	}
	if rec := journaled(); rec.state != arrivalDone || len(rec.image) == 0 {
		t.Fatalf("resident record: state %q, %d image bytes; replay needs the image", rec.state, len(rec.image))
	}

	if _, err := b.DispatchAgent("walker", "a"); err != nil {
		t.Fatal(err)
	}
	b.arrMu.Lock()
	live := b.arrivals[mids[0]]
	state, held := live.state, len(live.image)
	b.arrMu.Unlock()
	if state != arrivalDeparted || held != 0 {
		t.Fatalf("dedup table: state %q, %d image bytes held", state, held)
	}
	if rec := journaled(); rec.state != arrivalDeparted || rec.next != "a" || len(rec.image) != 0 {
		t.Fatalf("journal: state %q next %q, %d image bytes", rec.state, rec.next, len(rec.image))
	}

	b2 := restartSite(t, net, b, "a")
	if restored := bootstrap(t, b2); len(restored) != 0 {
		t.Fatalf("restart resurrected %v", restored)
	}
	if got := copies("walker", a, b2); got != 1 {
		t.Fatalf("walker copies = %d", got)
	}
	if st := b2.AgentArrivalStatus("walker"); st.State != arrivalDeparted || st.Next != "a" {
		t.Errorf("itinerary trace after restart = %+v", st)
	}
}

// TestCheckpointCrashBootsOldOrNew: images and the manifest ride one
// PutAll, in map order. While a crash inside the batch could persist a
// prefix of it, a cut after the new manifest and before one of the new
// images left a site that could not boot ("no such slot") although the
// previous checkpoint was intact. Every byte cut inside the second
// checkpoint now boots to exactly the old membership or exactly the new.
func TestCheckpointCrashBootsOldOrNew(t *testing.T) {
	net := transport.NewInProcNet()
	wal := walStore(t)
	s := newMigSite(t, net, "s", wal)
	var old, all []string
	for i := 0; i < 8; i++ {
		old = append(old, fmt.Sprintf("apo-%d", i))
		inertAgent(t, s, old[i])
	}
	if err := s.PersistAll(); err != nil {
		t.Fatal(err)
	}
	from := wal.Stats().TotalBytes
	all = append(all, old...)
	for i := 8; i < 16; i++ {
		all = append(all, fmt.Sprintf("apo-%d", i))
		inertAgent(t, s, all[i])
	}
	sort.Strings(all)
	if err := s.PersistAll(); err != nil {
		t.Fatal(err)
	}
	to := wal.Stats().TotalBytes
	s.Close()
	wal.Close()
	segs, err := filepath.Glob(filepath.Join(wal.Dir(), "seg-*.wal"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments %v, %v", segs, err)
	}
	log, err := os.ReadFile(segs[0])
	if err != nil || int64(len(log)) != to {
		t.Fatalf("segment holds %d bytes (%v), the store counted %d", len(log), err, to)
	}
	manifest, err := os.ReadFile(filepath.Join(wal.Dir(), "wal-manifest"))
	if err != nil {
		t.Fatal(err)
	}
	stride := int64(1)
	if testing.Short() {
		stride = 13
	}
	for cut := from; cut <= to; cut += stride {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(segs[0])), log[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "wal-manifest"), manifest, 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := persist.NewWALStore(dir)
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		s2, err := NewSite(Config{Name: "s", Store: re})
		if err != nil {
			t.Fatal(err)
		}
		restored, err := s2.BootstrapHome()
		if want := map[bool][]string{false: old, true: all}[cut == to]; err != nil || !reflect.DeepEqual(restored, want) {
			t.Fatalf("cut=%d of [%d, %d]: bootstrap = %v, %v; want %v", cut, from, to, restored, err, want)
		}
		s2.Close()
		re.Close()
	}
}
