package main

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/hadas"
	"repro/internal/persist"
	"repro/internal/value"
)

const arrivalSrc = `fn(hop) {
	self.hops = self.hops + 1;
	if hop["hostSite"] == "host" { return self.hops; }
	return ctx.lookup("ioo").dispatchAgent(hop["agent"], "host");
}`

// agentWorkload: both sites on a WALStore; a courier agent is dispatched
// from host to origin, where its onArrival dispatches it home again.
type agentWorkload struct {
	host, origin   *hadas.Site
	hostWAL, orWAL *persist.WALStore
	hostDir, orDir string
	names          [2][couriers]string
	hops           [2][couriers]int64
}

func (w *agentWorkload) open(e *env, name, dir string) (*hadas.Site, *persist.WALStore, error) {
	wal, err := persist.NewWALStore(dir)
	if err != nil {
		return nil, nil, err
	}
	s, err := newSite(e, name, e.store(wal))
	if err != nil {
		wal.Close()
		return nil, nil, err
	}
	return s, wal, nil
}

func (w *agentWorkload) setup(e *env) (err error) {
	w.hostDir, w.orDir = filepath.Join(e.workDir, "host"), filepath.Join(e.workDir, "origin")
	if w.host, w.hostWAL, err = w.open(e, "host", w.hostDir); err != nil {
		return err
	}
	if w.origin, w.orWAL, err = w.open(e, "origin", w.orDir); err != nil {
		return err
	}
	n := e.pop(agentPop)
	for _, s := range []*hadas.Site{w.host, w.origin} {
		batch := make(map[string]*core.Object, n+2*couriers)
		echo := lookupBody(s, behaviorEcho)
		for i, name := range apoNames("apo", n) {
			if batch[name], err = buildResident(s, echo, i); err != nil {
				return err
			}
		}
		if s == w.host {
			for c := range w.names {
				for k := range w.names[c] {
					w.names[c][k] = fmt.Sprintf("courier-%d-%d", c, k)
					b := s.NewAPOBuilder("Courier")
					b.ExtData("hops", value.NewInt(0))
					for d := 0; d < 15; d++ {
						b.ExtData(fmt.Sprintf("cargo%02d", d), value.NewString(fmt.Sprintf("parcel %d of courier %d-%d", d, c, k)))
					}
					b.FixedScriptMethod("onArrival", arrivalSrc)
					if batch[w.names[c][k]], err = b.Build(); err != nil {
						return err
					}
				}
			}
		}
		if err := s.AddAPOs(batch); err != nil {
			return err
		}
		start := time.Now()
		if err := s.PersistAll(); err != nil {
			return err
		}
		e.parts.persistAllNsPerAPO = float64(time.Since(start)) / float64(len(batch))
	}

	// Restart: everything above survives only through the log.
	w.close()
	if w.host, w.hostWAL, err = w.open(e, "host", w.hostDir); err != nil {
		return err
	}
	if w.origin, w.orWAL, err = w.open(e, "origin", w.orDir); err != nil {
		return err
	}
	for _, s := range []*hadas.Site{w.host, w.origin} {
		start := time.Now()
		restored, err := s.BootstrapHome()
		if err != nil {
			return err
		}
		e.parts.bootstrapNsPerAPO = float64(time.Since(start)) / float64(len(restored))
	}
	if _, err := w.host.Serve("127.0.0.1:0"); err != nil {
		return err
	}
	addr, err := w.origin.Serve("127.0.0.1:0")
	if err != nil {
		return err
	}
	start := time.Now()
	if _, err := w.host.Link(addr); err != nil {
		return err
	}
	e.parts.linkNs = float64(time.Since(start))
	return nil
}

func buildResident(s *hadas.Site, echo core.Body, i int) (*core.Object, error) {
	b := s.NewAPOBuilder("Resident")
	b.FixedData("idx", value.NewInt(int64(i)))
	b.ExtData("note", value.NewString("resident application object"))
	b.FixedMethod("work", echo)
	return b.Build()
}

func (w *agentWorkload) op(c int, rng *rand.Rand) error {
	k := rng.Intn(couriers)
	v, err := w.host.DispatchAgent(w.names[c][k], "origin")
	if err != nil {
		return err
	}
	w.hops[c][k] += 2
	return wantInt(v, w.hops[c][k], "hops")
}

func (w *agentWorkload) prefill() error { return nil }

func (w *agentWorkload) check() error {
	for c := range w.names {
		for k, name := range w.names[c] {
			obj, err := w.host.APO(name)
			if err != nil {
				return fmt.Errorf("%s is not at host: %w", name, err)
			}
			v, err := obj.Get(obj.Principal(), "hops")
			if err != nil {
				return err
			}
			if err := wantInt(v, w.hops[c][k], name+" hops"); err != nil {
				return err
			}
			if _, err := w.origin.APO(name); !errors.Is(err, hadas.ErrNoAPO) {
				return fmt.Errorf("%s left a copy at origin (err=%v)", name, err)
			}
		}
	}
	for _, s := range []*hadas.Site{w.host, w.origin} {
		if rep := s.MigrationReport(); len(rep) > 0 {
			return fmt.Errorf("site %s: %d migrations in doubt or orphaned, first %+v", s.Name(), len(rep), rep[0])
		}
	}
	return nil
}

func (w *agentWorkload) mirror() mirrorInfo {
	name := w.names[0][0]
	obj, err := w.host.APO(name)
	if err != nil {
		panic(err) // every op ends with the courier back at host
	}
	return mirrorInfo{
		site: w.host, name: name, obj: obj,
		build:   func() (*core.Object, error) { return buildResident(w.host, lookupBody(w.host, behaviorEcho), 0) },
		scripts: []string{arrivalSrc},
		// The store operations, and per hop: a bare round trip, the image
		// out and in, the request's codec both ways, onArrival.
		path: func(m map[string]float64) float64 {
			return m["persist.self_ns"] + m["transport.calls_per_op"]*
				(m["transport.null_call_tcp_ns"]+imageNs(m)+2*wireNs(m)+m["core.invoke_script_ns"])
		},
	}
}

// walStats sums the two sites' log statistics.
func (w *agentWorkload) walStats() (st persist.WALStats) {
	for _, wal := range []*persist.WALStore{w.hostWAL, w.orWAL} {
		s := wal.Stats()
		st.Segments += s.Segments
		st.TotalBytes += s.TotalBytes
		st.GarbageBytes += s.GarbageBytes
	}
	return st
}

// reopenNs closes everything and times a reopen of the host's log: the
// share of a restart that is the store's own.
func (w *agentWorkload) reopenNs() (float64, error) {
	w.close()
	start := time.Now()
	wal, err := persist.NewWALStore(w.hostDir)
	if err != nil {
		return 0, err
	}
	ns := float64(time.Since(start))
	return ns, wal.Close()
}

func (w *agentWorkload) close() {
	closeSites(w.host, w.origin)
	for _, wal := range []*persist.WALStore{w.hostWAL, w.orWAL} {
		if wal != nil {
			wal.Close()
		}
	}
	w.host, w.origin, w.hostWAL, w.orWAL = nil, nil, nil, nil
}
