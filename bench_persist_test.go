package repro

// Persistence benchmarks: sustained Put throughput of the log-structured
// WAL store under concurrent writers (group commit amortizes the fsync),
// and E15 — bootstrap recovery time by slot count (replay + index
// rebuild).

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/hadas"
	"repro/internal/persist"
	"repro/internal/transport"
)

// BenchmarkWALPut drives 8 concurrent writers of distinct 256-byte slots
// into one WAL: the writers coalesce into group commits — one buffered
// write and one fsync per batch.
func BenchmarkWALPut(b *testing.B) {
	s, err := persist.NewWALStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	val := make([]byte, 256)
	var seq atomic.Int64
	b.SetParallelism(8) // 8 writer goroutines even at GOMAXPROCS=1
	b.SetBytes(int64(len(val)))
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			n := seq.Add(1)
			if err := s.Put(fmt.Sprintf("slot-%09d", n), val); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkE15_BootstrapRecovery times a cold OpenWALStore — the full
// log replay and index rebuild — by slot count. Population (batched
// PutAll, outside the timer) writes one record per slot; the "rewritten"
// case adds one full overwrite round, so its replay also pays for a log
// that is half garbage. The 1e6 tier writes a ~150 MB log and is skipped
// under -short.
func BenchmarkE15_BootstrapRecovery(b *testing.B) {
	for _, c := range []struct{ n, rounds int }{{100, 1}, {10_000, 1}, {10_000, 2}, {1_000_000, 1}} {
		n, name := c.n, fmt.Sprintf("slots=%d", c.n)
		if c.rounds > 1 {
			name += ",rewritten"
		}
		b.Run(name, func(b *testing.B) {
			if n >= 1_000_000 && testing.Short() {
				b.Skip("1e6-slot tier skipped with -short")
			}
			dir := b.TempDir()
			w, err := persist.NewWALStore(dir)
			if err != nil {
				b.Fatal(err)
			}
			val := make([]byte, 128)
			for round := 0; round < c.rounds; round++ {
				batch := make(map[string][]byte, 10_000)
				for i := 0; i < n; i++ {
					batch[fmt.Sprintf("slot-%09d", i)] = val
					if len(batch) == 10_000 {
						if err := w.PutAll(batch); err != nil {
							b.Fatal(err)
						}
						batch = make(map[string][]byte, 10_000)
					}
				}
				if err := w.PutAll(batch); err != nil {
					b.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// The open lists the directory, and os.ReadDir takes its
				// 8 KiB buffer from a sync.Pool, where it survives one
				// collection but not two: allocs/op would follow how many
				// the population ran (148 or 150). Two collections empty
				// every pool, so the open always allocates it.
				b.StopTimer()
				runtime.GC()
				runtime.GC()
				b.StartTimer()
				re, err := persist.NewWALStore(dir)
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if slots, err := re.List(); err != nil || len(slots) != n {
					b.Fatalf("recovered %d slots, %v; want %d", len(slots), err, n)
				}
				re.Close()
				b.StartTimer()
			}
		})
	}
}

// barrierCounter counts the durability barriers a site asks of its store.
type barrierCounter struct {
	*persist.WALStore
	n *atomic.Int64
}

func (c barrierCounter) Put(slot string, data []byte) error {
	c.n.Add(1)
	return c.WALStore.Put(slot, data)
}
func (c barrierCounter) PutAll(batch map[string][]byte) error {
	c.n.Add(1)
	return c.WALStore.PutAll(batch)
}
func (c barrierCounter) Delete(slot string) error {
	c.n.Add(1)
	return c.WALStore.Delete(slot)
}
func (c barrierCounter) Sync() error {
	c.n.Add(1)
	return c.WALStore.Sync()
}

// BenchmarkDurableAgentRoundTrip is E11's journey — out, and onArrival
// bounces the agent home — between two WAL-backed sites: the journaled
// hand-off with its fsyncs (DESIGN.md §9). Beside ns/op it reports the
// barriers per round trip, which the protocol fixes at eight, and the log
// bytes those barriers made durable. Not in BENCH_TRACKED: at a
// millisecond per op the tracked benchtime would take minutes.
func BenchmarkDurableAgentRoundTrip(b *testing.B) {
	net := transport.NewInProcNet()
	var barriers atomic.Int64
	var wals []*persist.WALStore
	mk := func(name string) *hadas.Site {
		wal, err := persist.OpenWALStore(filepath.Join(b.TempDir(), name), persist.WALOptions{DisableAutoCompact: true})
		if err != nil {
			b.Fatal(err)
		}
		wals = append(wals, wal)
		s, err := hadas.NewSite(hadas.Config{
			Name:  name,
			Dial:  func(addr string) (transport.Conn, error) { return net.Dial(addr) },
			Store: barrierCounter{wal, &barriers},
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := s.ServeInProc(net); err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { s.Close(); wal.Close() })
		return s
	}
	host, _ := mk("bench-host"), mk("bench-origin")
	if _, err := host.Link("bench-origin"); err != nil {
		b.Fatal(err)
	}
	builder := host.NewAPOBuilder("Bouncer")
	builder.FixedScriptMethod("onArrival", `fn(hop) {
		if hop["hostSite"] == "bench-host" { return "home"; }
		return ctx.lookup("ioo").dispatchAgent(hop["agent"], "bench-host");
	}`)
	if err := host.AddAPO("bouncer", builder.MustBuild()); err != nil {
		b.Fatal(err)
	}
	logBytes := func() (n int64) {
		for _, w := range wals {
			n += w.Stats().TotalBytes
		}
		return n
	}
	b.ResetTimer()
	barriers.Store(0)
	bytesBefore := logBytes()
	for i := 0; i < b.N; i++ {
		if v, err := host.DispatchAgent("bouncer", "bench-origin"); err != nil || v.String() != "home" {
			b.Fatalf("journey = %v, %v", v, err)
		}
	}
	b.ReportMetric(float64(barriers.Load())/float64(b.N), "barriers/op")
	b.ReportMetric(float64(logBytes()-bytesBefore)/float64(b.N), "fsync-bytes/op")
}
