package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/hadas"
	"repro/internal/security"
	"repro/internal/value"
)

const quoteSrc = `fn(keys) {
	let recs = self.records;
	let total = 0;
	let n = 0;
	for k in keys {
		if has(recs, k) {
			total = total + recs[k]["price"];
			n = n + 1;
		}
	}
	return {"total": total, "count": n};
}`

// relayWorkload: clients at host call imported Ambassadors, which relay
// quote(keys) to their Catalog APO at origin, where an MScript body runs.
type relayWorkload struct {
	host, origin *hadas.Site
	ambs         []*core.Object
	keys         [relayRecs]value.Value
	callers      []security.Principal
	args         [][]value.Value // per-client scratch for the key list
}

func relayPrice(catalog, rec int) int64 { return int64((catalog*31+rec*7)%997 + 1) }

func (w *relayWorkload) setup(e *env) (err error) {
	if w.origin, err = newSite(e, "origin", nil); err != nil {
		return err
	}
	if w.host, err = newSite(e, "host", nil); err != nil {
		return err
	}
	for k := range w.keys {
		w.keys[k] = value.NewString(fmt.Sprintf("sku-%02d", k))
	}
	names := apoNames("catalog", e.pop(relayPop))
	batch := make(map[string]*core.Object, len(names))
	for j, name := range names {
		if batch[name], err = w.buildCatalog(j); err != nil {
			return err
		}
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

	start = time.Now()
	w.ambs = make([]*core.Object, len(names))
	for j, name := range names {
		local, err := w.host.Import("origin", name)
		if err != nil {
			return err
		}
		if w.ambs[j], err = w.host.ResolveObject(local); err != nil {
			return err
		}
	}
	e.parts.importNsPerAmb = float64(time.Since(start)) / float64(len(names))

	clients := 2
	w.callers = make([]security.Principal, clients)
	w.args = make([][]value.Value, clients)
	for c := range w.callers {
		w.callers[c] = principalAt(w.host)
		w.args[c] = make([]value.Value, relayKeys)
	}
	return nil
}

func (w *relayWorkload) buildCatalog(j int) (*core.Object, error) {
	recs := make(map[string]value.Value, relayRecs)
	for k := range w.keys {
		recs[w.keys[k].String()] = value.NewMap(map[string]value.Value{
			"price": value.NewInt(relayPrice(j, k)),
			"stock": value.NewInt(int64(k)),
		})
	}
	b := w.origin.NewAPOBuilder("Catalog")
	b.FixedData("records", value.NewMap(recs))
	b.FixedScriptMethod("quote", quoteSrc)
	return b.Build()
}

func (w *relayWorkload) op(c int, rng *rand.Rand) error {
	j := rng.Intn(len(w.ambs))
	var want int64
	keys := w.args[c]
	for i := range keys {
		k := rng.Intn(relayRecs)
		keys[i] = w.keys[k]
		want += relayPrice(j, k)
	}
	v, err := w.ambs[j].Invoke(w.callers[c], "quote", value.NewList(keys))
	if err != nil {
		return err
	}
	total, _ := v.Get("total")
	if err := wantInt(total, want, "quote total"); err != nil {
		return err
	}
	count, _ := v.Get("count")
	return wantInt(count, relayKeys, "quote count")
}

func (w *relayWorkload) prefill() error { return nil }
func (w *relayWorkload) check() error   { return nil }

func (w *relayWorkload) mirror() mirrorInfo {
	const name = "catalog-00000"
	obj, err := w.origin.APO(name)
	if err != nil {
		panic(err) // installed by setup
	}
	keys := value.NewList(append([]value.Value(nil), w.keys[:relayKeys]...))
	caller := w.ambs[0].Principal() // relayed calls arrive as the ambassador
	return mirrorInfo{
		site: w.origin, name: name, obj: obj,
		build:   func() (*core.Object, error) { return w.buildCatalog(0) },
		scripts: []string{quoteSrc},
		target:  func() error { _, err := obj.Invoke(caller, "quote", keys); return err },
		// The Ambassador's dispatch and its two reads of itself, then the
		// remote invoke of rpc-small with the target found by id.
		path: func(m map[string]float64) float64 {
			return m["core.invoke_ext_ns"] + 2*m["core.get_ns"] + m["value.build_req_ns"] + 2*wireNs(m) +
				m["transport.null_call_tcp_ns"] + 2*m["naming.parse_id_ns"] + m["naming.registry_lookup_ns"] +
				m["core.target_invoke_ns"]
		},
	}
}

func (w *relayWorkload) close() { closeSites(w.host, w.origin) }
