package main

import (
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"

	"repro/internal/core"
	"repro/internal/hadas"
	"repro/internal/persist"
	"repro/internal/security"
	"repro/internal/transport"
	"repro/internal/value"
)

// workload is one closed-loop traffic mix against real hadas.Sites. Every
// caller of Invoke, InvokeRemote and DispatchAgent blocks for its reply,
// so a client issues its next op only when the previous one has returned.
type workload interface {
	// setup builds the topology until it is ready for the first op.
	setup(e *env) error
	// op performs one operation as client c and verifies its result.
	op(c int, rng *rand.Rand) error
	// prefill builds, outside every timed section, the lazy state that ops
	// would otherwise still be building while they are measured.
	prefill() error
	// check verifies the end state once the last op has returned.
	check() error
	// mirror hands the stage mirrors this workload's real inputs.
	mirror() mirrorInfo
	// close tears the topology down.
	close()
}

// mirrorInfo is what the stage mirrors replay through one layer at a time.
type mirrorInfo struct {
	site    *hadas.Site                  // where ops resolve their target
	name    string                       // a Home name there
	obj     *core.Object                 // the population member under that name
	build   func() (*core.Object, error) // builds one more like it
	scripts []string                     // MScript sources the workload has parsed
	// target makes, locally and warm, the call a remote op makes at its
	// target object (core.target_invoke_ns); nil where ops have no remote
	// target.
	target func() error
	// streamBytes is the payload an op streams (transport.stream_mb_s).
	streamBytes int
	// path sums, from the per-layer metrics m, the spans and stage mirrors
	// one op of this workload is made of. What it leaves of the traced op
	// is trace.unattributed_frac.
	path func(m map[string]float64) float64
}

// Sums the path functions share.
func wireNs(m map[string]float64) float64 { // the request's codec; the reply is a dozen bytes
	return m["wire.encode_value_ns"] + m["wire.decode_value_ns"]
}

func imageNs(m map[string]float64) float64 { // an object's image out of one site and into another
	return m["core.snapshot_ns"] + m["wire.encode_image_ns"] + m["wire.decode_image_ns"] + m["core.from_image_ns"]
}

// spec describes a workload to the harness and to BENCHMARK.json.
type spec struct {
	name      string
	clients   int
	tracedOps int // op count of the traced phase
	why       string
	new       func() workload
}

var specs = []spec{
	{"rpc-small", 2, 2000, "smallest message and trivial body over TCP loopback: value, wire, transport and handleInvoke are the op; two callers, so neither vCPU idles between hops",
		func() workload { return &rpcWorkload{} }},
	{"rpc-bulk", 1, 500, "512 KiB argument: above StreamThreshold the same transport moves chunks under a credit window instead of one small frame",
		func() workload { return &rpcWorkload{bulk: true} }},
	{"relay-script", 2, 2000, "client to Ambassador to APO, the paper's central path: two dispatches, chain id, an interpreted body; two callers share one peer connection",
		func() workload { return &relayWorkload{} }},
	{"local-reflect", 2, 2000, "in-process reflective reads with rotating callers: core dispatch, decision caches and ACL match do the work; no transport, wire or store",
		func() workload { return &localWorkload{} }},
	{"local-mutate", 2, 2000, "structural writes beside reads on the same objects: generation bumps, cache rotation and script-cache lookups that caching harder must pay for",
		func() workload { return &localWorkload{mutate: true} }},
	{"agent-durable", 2, 500, "agent round trip between two WAL-backed sites after a restart: journal, arrival ack, group-commit fsync and image encode/decode on every hop",
		func() workload { return &agentWorkload{} }},
}

func findSpec(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// Populations (cut to quickPop by -quick).
const (
	rpcPop     = 16384
	relayPop   = 2048
	localPop   = 16384
	agentPop   = 2048
	quickPop   = 256
	bulkBytes  = 512 << 10
	bulkPool   = 8
	relayKeys  = 16
	relayRecs  = 64
	callerRing = 8
	couriers   = 4 // per client
)

// setupParts are the timed parts of a set-up, per unit where a part
// scales with the population.
type setupParts struct {
	addAPOsNsPerAPO    float64
	importNsPerAmb     float64
	linkNs             float64
	persistAllNsPerAPO float64
	bootstrapNsPerAPO  float64
}

// env is what a workload's set-up receives from the harness.
type env struct {
	seed    int64
	quick   bool
	workDir string  // private directory for stores; removed by the harness
	tr      *tracer // nil unless the tracing wrappers are installed
	parts   setupParts
}

func (e *env) pop(n int) int {
	if e.quick && n > quickPop {
		return quickPop
	}
	return n
}

func (e *env) dial(addr string) (transport.Conn, error) {
	c, err := transport.DialTCP(addr)
	if err != nil || e.tr == nil {
		return c, err
	}
	return wrapConn(c, e.tr), nil
}

func (e *env) body(fn core.NativeFunc) core.NativeFunc {
	if e.tr == nil {
		return fn
	}
	return wrapBody(fn, e.tr)
}

func (e *env) store(wal *persist.WALStore) persist.Backend {
	if e.tr == nil {
		return wal
	}
	return wrapStore(wal, e.tr)
}

func principalAt(s *hadas.Site) security.Principal {
	return security.Principal{Object: s.Generator().New(), Domain: s.Domain()}
}

func apoNames(prefix string, n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("%s-%05d", prefix, i)
	}
	return names
}

// Native bodies the harness registers at the sites it builds.
const (
	behaviorEcho = "bench.echo"
	behaviorSink = "bench.sink"
	behaviorPass = "bench.pass"
)

func echoBody(_ *core.Invocation, args []value.Value) (value.Value, error) {
	if len(args) == 0 {
		return value.Null, nil
	}
	return args[0], nil
}

// sinkBody answers a blob with its length and CRC-32.
func sinkBody(_ *core.Invocation, args []value.Value) (value.Value, error) {
	if len(args) == 0 {
		return value.Null, fmt.Errorf("%w: put needs a blob", core.ErrArity)
	}
	b, ok := args[0].Bytes()
	if !ok {
		return value.Null, fmt.Errorf("%w: put needs bytes, got %s", core.ErrArity, args[0].Kind())
	}
	return value.NewListOf(value.NewInt(int64(len(b))), value.NewInt(int64(crc32.ChecksumIEEE(b)))), nil
}

// passBody is a pass-through meta-invoke level.
func passBody(inv *core.Invocation, args []value.Value) (value.Value, error) {
	if len(args) < 2 {
		return value.Null, fmt.Errorf("%w: meta-invoke level needs (name, args)", core.ErrArity)
	}
	rest, _ := args[1].List()
	return inv.InvokeNext(args[0].String(), rest...)
}

func registerBodies(s *hadas.Site, e *env) {
	s.Behaviors().Register(behaviorEcho, e.body(echoBody))
	s.Behaviors().Register(behaviorSink, e.body(sinkBody))
	s.Behaviors().Register(behaviorPass, e.body(passBody))
}

func lookupBody(s *hadas.Site, name string) core.Body {
	b, err := s.Behaviors().Lookup(name)
	if err != nil {
		panic(err) // registered by registerBodies just before
	}
	return b
}

// newSite builds a site that dials through the harness and knows the
// harness's native bodies.
func newSite(e *env, name string, store persist.Backend) (*hadas.Site, error) {
	s, err := hadas.NewSite(hadas.Config{Name: name, Dial: e.dial, Store: store})
	if err != nil {
		return nil, err
	}
	registerBodies(s, e)
	return s, nil
}

func wantInt(v value.Value, want int64, what string) error {
	if got, ok := v.Int(); !ok || got != want {
		return fmt.Errorf("%s = %v, want %d", what, v, want)
	}
	return nil
}

func closeSites(sites ...*hadas.Site) {
	for _, s := range sites {
		if s != nil {
			s.Close()
		}
	}
}

// noopWorkload measures the harness itself: whatever allocs_per_op it
// shows is the harness's own.
type noopWorkload struct{ n [2]int64 }

func (w *noopWorkload) setup(*env) error             { return nil }
func (w *noopWorkload) op(c int, _ *rand.Rand) error { w.n[c]++; return nil }
func (w *noopWorkload) prefill() error               { return nil }
func (w *noopWorkload) check() error                 { return nil }
func (w *noopWorkload) mirror() mirrorInfo           { return mirrorInfo{} }
func (w *noopWorkload) close()                       {}

// onRealDisk fails when dir is on tmpfs, where fsync costs nothing and
// agent-durable would measure a memory copy.
func onRealDisk(dir string) (fsType string, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	fsType, err = fsTypeOf(dir)
	if err != nil {
		return "", err
	}
	if fsType == "tmpfs" || fsType == "ramfs" {
		return fsType, fmt.Errorf("%s is on %s: fsync would be free and agent-durable meaningless; run from a checkout on a real disk", dir, fsType)
	}
	return fsType, nil
}
