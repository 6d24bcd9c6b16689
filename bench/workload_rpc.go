package main

import (
	"fmt"
	"hash/crc32"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/hadas"
	"repro/internal/security"
	"repro/internal/value"
)

// rpcWorkload: host calls APOs at origin directly with InvokeRemote over
// TCP loopback. rpc-small echoes an integer through one of rpcPop APOs;
// rpc-bulk streams a 512 KiB blob to one sink APO of the same population.
//
// rpc-small runs two callers, not one. With one in flight a vCPU goes idle
// between every two hops of the op, and what the op then costs is how long
// the hypervisor takes to wake a halted vCPU, which changes second by
// second: slices of one run had p50 between 19 and 34 us, runs between 21
// and 29 us, where two callers gave 30 to 32 us (README.md). The one-caller
// latency is still reported, by the traced run (bench.solo_latency_p50_us).
type rpcWorkload struct {
	bulk         bool
	host, origin *hadas.Site
	names        []string
	caller       security.Principal
	blobs        [bulkPool][]byte
	sums         [bulkPool]int64
	seq          [2]ringPos // per-client sequence number, the echoed argument
}

func (w *rpcWorkload) setup(e *env) (err error) {
	if w.origin, err = newSite(e, "origin", nil); err != nil {
		return err
	}
	if w.host, err = newSite(e, "host", nil); err != nil {
		return err
	}
	w.names = apoNames("apo", e.pop(rpcPop))
	echo := lookupBody(w.origin, behaviorEcho)
	batch := make(map[string]*core.Object, len(w.names)+1)
	for i, name := range w.names {
		if batch[name], err = buildEcho(w.origin, echo, i); err != nil {
			return err
		}
	}
	b := w.origin.NewAPOBuilder("Sink")
	b.FixedMethod("put", lookupBody(w.origin, behaviorSink))
	if batch["sink"], err = b.Build(); err != nil {
		return err
	}
	start := time.Now()
	if err := w.origin.AddAPOs(batch); err != nil {
		return err
	}
	e.parts.addAPOsNsPerAPO = float64(time.Since(start)) / float64(len(batch))

	addr, err := w.origin.Serve("127.0.0.1:0")
	if err != nil {
		return err
	}
	start = time.Now()
	if _, err := w.host.Link(addr); err != nil {
		return err
	}
	e.parts.linkNs = float64(time.Since(start))
	w.caller = principalAt(w.host)

	if w.bulk {
		rng := rand.New(rand.NewSource(e.seed))
		for i := range w.blobs {
			w.blobs[i] = make([]byte, bulkBytes)
			rng.Read(w.blobs[i])
			w.sums[i] = int64(crc32.ChecksumIEEE(w.blobs[i]))
		}
	}
	return nil
}

func buildEcho(s *hadas.Site, echo core.Body, i int) (*core.Object, error) {
	b := s.NewAPOBuilder("Echo")
	b.FixedData("idx", value.NewInt(int64(i)))
	b.FixedMethod("work", echo)
	return b.Build()
}

func (w *rpcWorkload) op(c int, rng *rand.Rand) error {
	if w.bulk {
		k := rng.Intn(bulkPool)
		v, err := w.host.InvokeRemote("origin", w.caller, "sink", "put", value.NewBytes(w.blobs[k]))
		if err != nil {
			return err
		}
		l, _ := v.List()
		if len(l) != 2 {
			return fmt.Errorf("put = %v, want [len, crc]", v)
		}
		if err := wantInt(l[0], bulkBytes, "put length"); err != nil {
			return err
		}
		return wantInt(l[1], w.sums[k], "put crc")
	}
	w.seq[c].n++
	k := int64(w.seq[c].n)
	v, err := w.host.InvokeRemote("origin", w.caller, w.names[rng.Intn(len(w.names))], "work", value.NewInt(k))
	if err != nil {
		return err
	}
	return wantInt(v, k, "work")
}

func (w *rpcWorkload) prefill() error { return nil }
func (w *rpcWorkload) check() error   { return nil }

func (w *rpcWorkload) mirror() mirrorInfo {
	name, method, arg := w.names[0], "work", value.NewInt(1)
	if w.bulk {
		name, method, arg = "sink", "put", value.NewBytes(w.blobs[0])
	}
	obj, err := w.origin.APO(name)
	if err != nil {
		panic(err) // installed by setup
	}
	// The caller as origin sees it: the host's object in the host's domain.
	caller := w.caller
	mi := mirrorInfo{
		site: w.origin, name: name, obj: obj,
		build:  func() (*core.Object, error) { return buildEcho(w.origin, lookupBody(w.origin, behaviorEcho), 0) },
		target: func() error { _, err := obj.Invoke(caller, method, arg); return err },
		// Build and encode the request, one round trip, decode it, find
		// the caller and the target, invoke; the same codec for the reply.
		path: func(m map[string]float64) float64 {
			return m["value.build_req_ns"] + 2*wireNs(m) + m["transport.null_call_tcp_ns"] +
				m["naming.parse_id_ns"] + m["hadas.home_lookup_ns"] + m["core.target_invoke_ns"]
		},
	}
	if w.bulk {
		mi.streamBytes = bulkBytes
	}
	return mi
}

func (w *rpcWorkload) close() { closeSites(w.host, w.origin) }
