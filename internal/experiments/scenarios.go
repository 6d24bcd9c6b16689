package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/hadas"
	"repro/internal/naming"
	"repro/internal/security"
	"repro/internal/transport"
	"repro/internal/value"
)

// Gen is the experiment suite's identity generator.
var Gen = naming.NewGenerator("experiments")

// OpenPolicy allows every domain — experiments isolate the cost under test.
func OpenPolicy() *security.Policy {
	p := security.NewPolicy()
	p.SetDefault(security.Untrusted, security.Allow)
	p.SetDefault(security.Limited, security.Allow)
	return p
}

// Stranger mints a fresh non-self principal.
func Stranger() security.Principal {
	return security.Principal{Object: Gen.New(), Domain: "bench.domain"}
}

// NoopBody is a registered native body returning its first argument.
func registerNoop(reg *core.BehaviorRegistry) {
	reg.Register("bench.noop", func(_ *core.Invocation, args []value.Value) (value.Value, error) {
		if len(args) > 0 {
			return args[0], nil
		}
		return value.Null, nil
	})
	reg.Register("bench.pass", func(inv *core.Invocation, args []value.Value) (value.Value, error) {
		name := args[0].String()
		rest, _ := args[1].List()
		return inv.InvokeNext(name, rest...)
	})
	reg.Register("bench.true", func(*core.Invocation, []value.Value) (value.Value, error) {
		return value.True, nil
	})
}

// BenchObject builds an object with nFixed fixed and nExt extensible data
// items, a native "work" method in the fixed section, and the same under
// "workExt" in the extensible section.
func BenchObject(nFixed, nExt int) *core.Object {
	reg := core.NewBehaviorRegistry()
	registerNoop(reg)
	b := core.NewBuilder(Gen, "Bench",
		core.WithPolicy(OpenPolicy()),
		core.WithRegistry(reg))
	for i := 0; i < nFixed; i++ {
		b.FixedData(fmt.Sprintf("f%04d", i), value.NewInt(int64(i)))
	}
	for i := 0; i < nExt; i++ {
		b.ExtData(fmt.Sprintf("e%04d", i), value.NewInt(int64(i)))
	}
	noop, err := reg.Lookup("bench.noop")
	if err != nil {
		panic(err)
	}
	b.FixedMethod("work", noop)
	b.ExtMethod("workExt", noop)
	return b.MustBuild()
}

// QuoteSrc is the relay-script workload's interpreted body (bench/): a
// loop over the keys it is given, a builtin call and two index reads per
// key, a map result.
const QuoteSrc = `fn(keys) {
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

// CatalogObject builds that workload's APO — recs price records under
// "sku-NN" and the quote method — and the list of its first nkeys keys.
func CatalogObject(recs, nkeys int) (*core.Object, value.Value) {
	records := make(map[string]value.Value, recs)
	keys := make([]value.Value, 0, nkeys)
	for k := 0; k < recs; k++ {
		key := fmt.Sprintf("sku-%02d", k)
		records[key] = value.NewMap(map[string]value.Value{
			"price": value.NewInt(int64(k*7%997 + 1)),
			"stock": value.NewInt(int64(k)),
		})
		if k < nkeys {
			keys = append(keys, value.NewString(key))
		}
	}
	b := core.NewBuilder(Gen, "Catalog", core.WithPolicy(OpenPolicy()))
	b.FixedData("records", value.NewMap(records))
	b.FixedScriptMethod("quote", QuoteSrc)
	return b.MustBuild(), value.NewList(keys)
}

// AddInvokeLevels installs n pass-through meta-invoke levels.
func AddInvokeLevels(obj *core.Object, n int) error {
	for i := 0; i < n; i++ {
		if _, err := obj.InvokeSelf("setMethod", value.NewString("invoke"),
			value.NewMap(map[string]value.Value{
				"body": core.DescriptorToValue(core.BodyDescriptor{
					Kind: core.BodyNative, Name: "bench.pass"}),
			})); err != nil {
			return err
		}
	}
	return nil
}

// WrappedObject builds an object whose "work" method carries the requested
// pre/post wrapping (native bodies returning true).
func WrappedObject(pre, post bool) *core.Object {
	reg := core.NewBehaviorRegistry()
	registerNoop(reg)
	b := core.NewBuilder(Gen, "Wrapped",
		core.WithPolicy(OpenPolicy()),
		core.WithRegistry(reg))
	noop, _ := reg.Lookup("bench.noop")
	guard, _ := reg.Lookup("bench.true")
	var opts []core.ItemOption
	if pre {
		opts = append(opts, core.WithPre(guard))
	}
	if post {
		opts = append(opts, core.WithPost(guard))
	}
	b.FixedMethod("work", noop, opts...)
	return b.MustBuild()
}

// ACLObject builds an object whose "work" method carries an ACL with n
// non-matching entries before the final decision entry for the caller.
func ACLObject(n int, decider security.Entry) *core.Object {
	entries := make([]security.Entry, 0, n+1)
	for i := 0; i < n; i++ {
		entries = append(entries, security.Entry{
			Effect: security.Deny,
			Object: Gen.New(), // never matches the bench caller
		})
	}
	entries = append(entries, decider)

	reg := core.NewBehaviorRegistry()
	registerNoop(reg)
	b := core.NewBuilder(Gen, "ACLBench",
		core.WithPolicy(OpenPolicy()),
		core.WithRegistry(reg))
	noop, _ := reg.Lookup("bench.noop")
	b.FixedMethod("work", noop, core.WithACL(security.NewACL(entries...)))
	return b.MustBuild()
}

// MigrationObject builds an object with nItems extensible data items and
// nScript script methods of roughly bodyLines lines each, representative
// of an ambassador of a given size.
func MigrationObject(nItems, nScript, bodyLines int) *core.Object {
	b := core.NewBuilder(Gen, "Migrant", core.WithPolicy(OpenPolicy()))
	for i := 0; i < nItems; i++ {
		b.ExtData(fmt.Sprintf("d%04d", i), value.NewString(fmt.Sprintf("value-%d-with-some-padding", i)))
	}
	for i := 0; i < nScript; i++ {
		src := "fn(x) {\n  let acc = 0;\n"
		for l := 0; l < bodyLines; l++ {
			src += fmt.Sprintf("  acc = acc + x + %d;\n", l)
		}
		src += "  return acc;\n}"
		b.ExtScriptMethod(fmt.Sprintf("m%04d", i), src)
	}
	return b.MustBuild()
}

// TwoSites builds a linked (host, origin) pair over a fresh in-process
// network, with the employee database APO installed at the origin.
func TwoSites() (host, origin *hadas.Site, cleanup func(), err error) {
	net := transport.NewInProcNet()
	mk := func(name string) (*hadas.Site, error) {
		s, err := hadas.NewSite(hadas.Config{
			Name: name,
			Dial: func(addr string) (transport.Conn, error) { return net.Dial(addr) },
		})
		if err != nil {
			return nil, err
		}
		if err := s.ServeInProc(net); err != nil {
			s.Close()
			return nil, err
		}
		return s, nil
	}
	origin, err = mk("bench-origin")
	if err != nil {
		return nil, nil, nil, err
	}
	host, err = mk("bench-host")
	if err != nil {
		origin.Close()
		return nil, nil, nil, err
	}
	cleanup = func() {
		host.Close()
		origin.Close()
	}
	if err := InstallEmployeeDB(origin); err != nil {
		cleanup()
		return nil, nil, nil, err
	}
	if _, err := host.Link("bench-origin"); err != nil {
		cleanup()
		return nil, nil, nil, err
	}
	return host, origin, cleanup, nil
}

// FanOutPeerName returns the i-th peer name FanOutSites builds.
func FanOutPeerName(i int) string { return fmt.Sprintf("fan-peer-%02d", i) }

// latencyConn injects a fixed synthetic round-trip delay in front of an
// inner connection: each Call — and each CallMulti batch as a whole —
// pays the delay exactly once, the way a WAN round trip would. Loopback
// RTT is effectively zero, so without this the E14 series only measures
// per-call CPU cost; with it, the series separates "one round trip per
// batch" (pipelined fan-out) from "one round trip per call" (sequential).
type latencyConn struct {
	inner transport.Conn
	rtt   time.Duration
}

func (c latencyConn) wait(ctx context.Context) error {
	t := time.NewTimer(c.rtt)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (c latencyConn) Call(ctx context.Context, verb string, payload []byte) ([]byte, error) {
	if err := c.wait(ctx); err != nil {
		return nil, err
	}
	return c.inner.Call(ctx, verb, payload)
}

func (c latencyConn) CallMulti(ctx context.Context, reqs []transport.MultiRequest) []transport.MultiResult {
	if err := c.wait(ctx); err != nil {
		out := make([]transport.MultiResult, len(reqs))
		for i := range out {
			out[i].Err = err
		}
		return out
	}
	return transport.DoMulti(ctx, c.inner, reqs)
}

func (c latencyConn) Ping(ctx context.Context) error { return c.inner.Ping(ctx) }
func (c latencyConn) Close() error                   { return c.inner.Close() }

// FanOutSites builds the E14 topology: one origin linked to n peer sites
// over real TCP loopback (the coalescing, pipelining carrier — not the
// in-process shortcut), each peer serving the employee database APO.
func FanOutSites(n int) (origin *hadas.Site, peers []string, cleanup func(), err error) {
	return FanOutSitesRTT(n, 0)
}

// FanOutSitesRTT is FanOutSites with a synthetic round-trip delay on every
// connection the origin dials, modelling peers a WAN hop away.
func FanOutSitesRTT(n int, rtt time.Duration) (origin *hadas.Site, peers []string, cleanup func(), err error) {
	dial := transport.DialTCP
	if rtt > 0 {
		dial = func(addr string) (transport.Conn, error) {
			c, err := transport.DialTCP(addr)
			if err != nil {
				return nil, err
			}
			return latencyConn{inner: c, rtt: rtt}, nil
		}
	}
	var sites []*hadas.Site
	cleanup = func() {
		for _, s := range sites {
			s.Close()
		}
	}
	mk := func(name string) (*hadas.Site, string, error) {
		s, err := hadas.NewSite(hadas.Config{Name: name, Dial: dial})
		if err != nil {
			return nil, "", err
		}
		addr, err := s.Serve("127.0.0.1:0")
		if err != nil {
			s.Close()
			return nil, "", err
		}
		sites = append(sites, s)
		return s, addr, nil
	}
	origin, _, err = mk("fan-origin")
	if err != nil {
		return nil, nil, nil, err
	}
	peers = make([]string, n)
	for i := range peers {
		peers[i] = FanOutPeerName(i)
		p, addr, err := mk(peers[i])
		if err != nil {
			cleanup()
			return nil, nil, nil, err
		}
		if err := InstallEmployeeDB(p); err != nil {
			cleanup()
			return nil, nil, nil, err
		}
		if _, err := origin.Link(addr); err != nil {
			cleanup()
			return nil, nil, nil, err
		}
	}
	return origin, peers, cleanup, nil
}

// residentPoolCap bounds the distinct objects LoadedSites builds: above it,
// names alias pool members round-robin. The container scale under test is
// the Home/registry population, not the object heap — a million distinct
// objects would measure the allocator instead of the site.
const residentPoolCap = 1024

// ResidentName returns the i-th APO name LoadedSites installs.
func ResidentName(i int) string { return fmt.Sprintf("apo-%07d", i) }

// ChurnAgentName returns the i-th churn-agent name LoadedSites installs.
func ChurnAgentName(i int) string { return fmt.Sprintf("churn-%02d", i) }

// LoadedSites builds the parallel-benchmark topology: a linked
// (host, origin) pair with objs resident APOs — each carrying a native
// "work" method — plus agents inert churn agents installed at the origin
// in one batch. It returns the resident APO names (churn agents excluded).
func LoadedSites(objs, agents int) (host, origin *hadas.Site, names []string, cleanup func(), err error) {
	host, origin, cleanup, err = TwoSites()
	if err != nil {
		return nil, nil, nil, nil, err
	}
	registerNoop(origin.Behaviors())
	noop, err := origin.Behaviors().Lookup("bench.noop")
	if err != nil {
		cleanup()
		return nil, nil, nil, nil, err
	}
	pool := make([]*core.Object, min(objs, residentPoolCap))
	for i := range pool {
		b := origin.NewAPOBuilder("Resident")
		b.FixedData("idx", value.NewInt(int64(i)))
		b.FixedMethod("work", noop)
		pool[i] = b.MustBuild()
	}
	batch := make(map[string]*core.Object, objs+agents)
	names = make([]string, objs)
	for i := range names {
		names[i] = ResidentName(i)
		batch[names[i]] = pool[i%len(pool)]
	}
	for i := 0; i < agents; i++ {
		b := origin.NewAPOBuilder("Churn")
		b.FixedData("idx", value.NewInt(int64(i)))
		batch[ChurnAgentName(i)] = b.MustBuild()
	}
	if err := origin.AddAPOs(batch); err != nil {
		cleanup()
		return nil, nil, nil, nil, err
	}
	return host, origin, names, cleanup, nil
}

// InstallEmployeeDB installs the §5 running-example APO at a site.
func InstallEmployeeDB(s *hadas.Site) error {
	b := s.NewAPOBuilder("EmployeeDB")
	b.FixedData("records", value.NewMap(map[string]value.Value{
		"alice": value.NewMap(map[string]value.Value{"salary": value.NewInt(12500)}),
		"bob":   value.NewMap(map[string]value.Value{"salary": value.NewInt(9000)}),
	}))
	b.FixedScriptMethod("query", `fn(name) {
		let recs = self.records;
		if !has(recs, name) { return "no such employee"; }
		return recs[name];
	}`)
	b.FixedScriptMethod("salaryOf", `fn(name) {
		let recs = self.records;
		if !has(recs, name) { return -1; }
		return recs[name]["salary"];
	}`)
	apo, err := b.Build()
	if err != nil {
		return err
	}
	return s.AddAPO("payroll", apo)
}

// GoStruct is the fixed-offset baseline for E4: the same state as a small
// BenchObject, accessed the way a static language would.
type GoStruct struct {
	F0, F1, F2, F3 int64
}

// MapDispatch is the map-based dynamic-dispatch baseline for E3.
type MapDispatch struct {
	methods map[string]func([]value.Value) value.Value
}

// NewMapDispatch builds the baseline with a single "work" entry.
func NewMapDispatch() *MapDispatch {
	return &MapDispatch{methods: map[string]func([]value.Value) value.Value{
		"work": func(args []value.Value) value.Value {
			if len(args) > 0 {
				return args[0]
			}
			return value.Null
		},
	}}
}

// Call dispatches by name.
func (m *MapDispatch) Call(name string, args []value.Value) value.Value {
	return m.methods[name](args)
}
