package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/mscript"
	"repro/internal/naming"
	"repro/internal/security"
	"repro/internal/transport"
	"repro/internal/value"
	"repro/internal/wire"
)

// runTraced is the traced invocation. With the three wrappers installed it
// runs, on one topology: the workload untraced at its stated client count
// (tails, GC, syscalls), untraced with one client (the baseline the tracing
// overhead is taken against), traced with one client for a fixed op count
// (spans and counts), then the stage mirrors on inputs the Conn wrapper
// captured, and a no-op workload that measures the harness itself.
func runTraced(sp spec, cfg runConfig) (*repResult, *tracer, error) {
	tr := newTracer(sp.tracedOps * 64)
	cs := newClients(sp.clients, cfg.seed)
	top, err := build(sp, cfg, tr, cs[0])
	if err != nil {
		return nil, nil, err
	}
	defer top.close()
	res := &repResult{Workload: sp.name, Seed: cfg.seed, Attempted: 1, SetupS: []float64{top.seconds}, Metrics: map[string]float64{}}
	m := res.Metrics
	phase := func(clients []*client, share float64) *measured {
		dur := seconds(cfg.seconds * share)
		return res.fold(runLoad(top.w, clients, dur, max(3, int(dur.Seconds()+0.5))))
	}

	// Untraced, stated client count.
	res.fold(runLoad(top.w, cs, seconds(cfg.warm), 1))
	runtime.GC()
	ioBefore := readProcIO()
	full := phase(cs, 0.4)
	ioAfter := readProcIO()
	secs := full.last.at.Sub(full.first.at).Seconds()
	m["tail.latency_p99_us"] = full.all.quantile(0.99) / 1e3
	m["tail.p99_samples_beyond"] = float64(full.all.samplesBeyond(0.99))
	m["tail.latency_p999_us"] = full.all.quantile(0.999) / 1e3
	m["tail.p999_samples_beyond"] = float64(full.all.samplesBeyond(0.999))
	m["gc.cycles_per_s"] = float64(full.last.gcCycles-full.first.gcCycles) / secs
	m["gc.pause_us_per_s"] = float64(full.last.gcPauseNs-full.first.gcPauseNs) / 1e3 / secs
	agent, durable := top.w.(*agentWorkload)
	ops := max(float64(full.last.ops-full.first.ops), 1)
	if !durable { // with a store the log's own writes would drown the sockets'
		m["transport.write_syscalls_per_op"] = float64(ioAfter.syscw-ioBefore.syscw) / ops
		m["transport.read_syscalls_per_op"] = float64(ioAfter.syscr-ioBefore.syscr) / ops
	}

	// Untraced, one client.
	solo := full
	if sp.clients > 1 {
		solo = phase(cs[:1], 0.2)
	}
	untracedP50 := solo.all.quantile(0.5)
	m["bench.solo_latency_p50_us"] = untracedP50 / 1e3

	// Traced, one client, one op in flight.
	diskBefore := readProcIO().writeBytes
	budget := seconds(cfg.seconds * 0.4)
	var durs []float64
	tr.armed.Store(true)
	for i, start := 0, time.Now(); i == 0 || (i < sp.tracedOps && time.Since(start) < budget); i++ {
		tr.op.Store(int64(i))
		t0 := tr.now()
		err := top.w.op(0, cs[0].rng)
		t1 := tr.now()
		tr.add(spanOp, t0, t1)
		tr.op.Store(spanOutsideOp)
		durs = append(durs, float64(t1-t0))
		res.Attempted++
		if err != nil {
			res.Failed++
			res.note(err)
		}
	}
	tr.armed.Store(false)
	diskBytes := float64(readProcIO().writeBytes - diskBefore)
	if durable {
		st := agent.walStats()
		m["persist.segments_end"] = float64(st.Segments)
		if st.TotalBytes > 0 {
			m["persist.garbage_frac_end"] = float64(st.GarbageBytes) / float64(st.TotalBytes)
		}
	}
	if err := top.w.check(); err != nil {
		res.note(fmt.Errorf("end state: %w", err))
	}

	// Spans and counts.
	traced := float64(len(durs))
	ops2 := tr.attribute()
	per := func(f func(opBreakdown) int64) float64 {
		xs := make([]float64, len(ops2))
		for i, b := range ops2 {
			xs[i] = float64(f(b))
		}
		return median(xs)
	}
	opNs := median(durs)
	selfOp := per(func(b opBreakdown) int64 { return b.self[spanOp] })
	selfCall := per(func(b opBreakdown) int64 { return b.self[spanCall] })
	persistNs := per(func(b opBreakdown) int64 {
		return b.self[spanPut] + b.self[spanPutAll] + b.self[spanGet] + b.self[spanDelete] + b.self[spanList] + b.self[spanSync]
	})
	calls := float64(tr.calls) / traced
	m["transport.call_ns"] = per(func(b opBreakdown) int64 { return b.incl[spanCall] })
	m["transport.calls_per_op"] = calls
	m["transport.bytes_per_op"] = float64(tr.callBytes) / traced
	m["core.body_ns"] = per(func(b opBreakdown) int64 { return b.incl[spanBody] })
	if durable {
		m["persist.put_ns"] = tr.medianSpan(spanPut)
		m["persist.get_ns"] = tr.medianSpan(spanGet)
		m["persist.sync_ns"] = tr.medianSpan(spanSync)
		m["persist.puts_per_op"] = float64(tr.puts) / traced
		m["persist.deletes_per_op"] = float64(tr.deletes) / traced
		m["persist.put_bytes_per_op"] = float64(tr.putSize) / traced
		m["persist.wal_bytes_per_op"] = diskBytes / traced
		m["persist.write_amp"] = diskBytes / max(float64(tr.putSize), 1)
		m["persist.self_ns"] = persistNs
	}
	m["hadas.client_self_ns"] = selfOp
	m["trace.overhead_frac"] = opNs/max(untracedP50, 1) - 1
	for _, b := range ops2 {
		var sum int64
		for _, v := range b.self {
			sum += v
		}
		if sum != b.total {
			res.note(fmt.Errorf("trace: span self times sum to %d ns, op span is %d ns", sum, b.total))
			break
		}
	}

	// Stage mirrors, and what they leave unexplained.
	mi := top.w.mirror()
	if err := runMirrors(m, mi, tr, cfg); err != nil {
		return nil, nil, err
	}
	m["transport.stream_mb_s"] = ops / secs * float64(mi.streamBytes) / 1e6
	if mi.target != nil {
		m["hadas.server_self_ns"] = m["transport.call_ns"] - m["transport.null_call_tcp_ns"] - m["core.target_invoke_ns"]
	}
	if durable {
		// Everything both sites do for one round trip that is neither a
		// store operation nor the bare transport.
		m["hadas.dispatch_self_ns"] = selfOp + selfCall - calls*m["transport.null_call_tcp_ns"]
		if m["persist.reopen_ns"], err = agent.reopenNs(); err != nil {
			return nil, nil, err
		}
	}
	m["trace.unattributed_frac"] = (opNs - mi.path(m)) / max(opNs, 1)

	m["hadas.add_apos_ns_per_apo"] = top.e.parts.addAPOsNsPerAPO
	m["hadas.import_ns_per_amb"] = top.e.parts.importNsPerAmb
	m["hadas.link_ns"] = top.e.parts.linkNs
	m["hadas.persist_all_ns_per_apo"] = top.e.parts.persistAllNsPerAPO
	m["hadas.bootstrap_ns_per_apo"] = top.e.parts.bootstrapNsPerAPO

	// The harness itself: whatever a no-op workload allocates is ours.
	idle := runLoad(&noopWorkload{}, newClients(2, cfg.seed), 200*time.Millisecond, 3)
	m["bench.harness_allocs_per_op"] = float64(idle.last.mallocs-idle.first.mallocs) / max(float64(idle.last.ops-idle.first.ops), 1)

	for _, d := range perLayer {
		m[d.Name] += 0 // a layer the workload never enters reads 0, it is not left out
	}
	res.Correct = res.Failed == 0 && res.Error == ""
	return res, tr, nil
}

// medianSpan is the median duration of the spans of one name.
func (t *tracer) medianSpan(name string) float64 {
	var xs []float64
	for _, s := range t.spans {
		if s.Name == name {
			xs = append(xs, float64(s.End-s.Start))
		}
	}
	return median(xs)
}

type procIO struct{ syscr, syscw, writeBytes int64 }

// readProcIO reads the process's read and write syscall counts and the
// bytes it has sent to the block layer (sockets excluded, page-granular).
func readProcIO() (io procIO) {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return io
	}
	for _, line := range strings.Split(string(b), "\n") {
		k, v, _ := strings.Cut(line, ": ")
		n, _ := strconv.ParseInt(v, 10, 64)
		switch k {
		case "syscr":
			io.syscr = n
		case "syscw":
			io.syscw = n
		case "write_bytes":
			io.writeBytes = n
		}
	}
	return io
}

// ---- stage mirrors ----

// Typed sinks keep mirrored results alive without boxing them, which
// would add an allocation to the call being timed.
var (
	sink      any // pointers only
	sinkVal   value.Value
	sinkBytes []byte
	sinkID    naming.ID
	sinkImg   core.Image
	sinkFrame wire.Frame
)

// stopwatch times a function the way a micro-benchmark would: one batch
// to warm up, then batches of about batchTime; it returns the median
// batch's mean per call, and allocations per call over all batches.
type stopwatch struct {
	batches   int
	batchTime time.Duration
}

func newStopwatch(quick bool) stopwatch {
	if quick {
		return stopwatch{3, 200 * time.Microsecond}
	}
	return stopwatch{9, 3 * time.Millisecond}
}

func (sw stopwatch) time(f func()) (ns, allocs float64) {
	f()
	start := time.Now()
	f()
	n := int(sw.batchTime / max(time.Since(start), time.Nanosecond))
	n = min(max(n, 1), 1<<20)
	for i := 0; i < n; i++ {
		f()
	}
	var before, after runtime.MemStats
	means := make([]float64, sw.batches)
	runtime.ReadMemStats(&before)
	for b := range means {
		start := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		means[b] = float64(time.Since(start)) / float64(n)
	}
	runtime.ReadMemStats(&after)
	return median(means), float64(after.Mallocs-before.Mallocs) / float64(sw.batches*n)
}

// runMirrors times each layer's public functions on the workload's own
// inputs: the request and reply the Conn wrapper captured, the population
// member the workload names, and an object of the local workloads' class.
func runMirrors(m map[string]float64, mi mirrorInfo, tr *tracer, cfg runConfig) error {
	timeIt := newStopwatch(cfg.quick).time
	// A mirror lasts tens of milliseconds; one that fell inside a mark
	// phase of the workload's heap would measure the collector.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	e := &env{seed: cfg.seed}
	site, err := newSite(e, "mirror", nil)
	if err != nil {
		return err
	}
	defer site.Close()
	obj, err := buildLocalObject(site, 0)
	if err != nil {
		return err
	}
	if err := site.AddAPO("probe", obj); err != nil {
		return err
	}
	caller := principalAt(site)
	var firstErr error
	check := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}

	// value: the request invokeRemote builds.
	args := []value.Value{value.NewInt(1)}
	buildReq := func() value.Value {
		return value.NewMap(map[string]value.Value{
			"site":   value.NewString(site.Name()),
			"caller": value.NewString(caller.Object.String()),
			"target": value.NewString(mi.name),
			"method": value.NewString("work"),
			"args":   value.NewList(args),
		})
	}
	m["value.build_req_ns"], m["value.build_req_allocs"] = timeIt(func() { sinkVal = buildReq() })

	// wire: codec and framing of the captured request and reply.
	verb, req, rsp := tr.reqVerb, tr.req, tr.rsp
	if req == nil { // a workload with no remote call: the smallest invoke
		verb = "hadas.invoke"
		req = wire.EncodeValue(buildReq())
		rsp = wire.EncodeValue(value.NewMap(map[string]value.Value{"result": value.NewInt(1)}))
	}
	reqV, err := wire.DecodeValue(req)
	if err != nil {
		return fmt.Errorf("captured request: %w", err)
	}
	rspV, err := wire.DecodeValue(rsp)
	if err != nil {
		return fmt.Errorf("captured reply: %w", err)
	}
	var encA, decA, encB, decB float64
	m["wire.encode_value_ns"], encA = timeIt(func() { sinkBytes = wire.EncodeValue(reqV) })
	m["wire.decode_value_ns"], decA = timeIt(func() { v, err := wire.DecodeValue(req); check(err); sinkVal = v })
	_, encB = timeIt(func() { sinkBytes = wire.EncodeValue(rspV) })
	_, decB = timeIt(func() { v, err := wire.DecodeValue(rsp); check(err); sinkVal = v })
	m["wire.codec_allocs"] = encA + decA + encB + decB
	m["wire.req_bytes"], m["wire.resp_bytes"] = float64(len(req)), float64(len(rsp))
	frame := wire.Frame{Type: wire.FrameRequest, RequestID: 7, Verb: verb, Payload: req}
	buf, err := wire.AppendFrame(nil, frame)
	if err != nil {
		return err
	}
	m["wire.frame_append_ns"], _ = timeIt(func() { buf, err = wire.AppendFrame(buf[:0], frame); check(err) })
	rd := bytes.NewReader(buf)
	m["wire.frame_read_ns"], _ = timeIt(func() { rd.Reset(buf); f, err := wire.ReadFrame(rd); check(err); sinkFrame = f })

	// wire + core: the population member's image, out and back.
	img, err := mi.obj.Snapshot()
	if err != nil {
		return err
	}
	enc := wire.EncodeImage(img)
	reg := mi.obj.Registry()
	host := []core.MaterializeOption{core.HostPolicy(mi.site.Policy()), core.HostAuditor(mi.site.Auditor()), core.HostResolver(mi.site)}
	m["core.snapshot_ns"], _ = timeIt(func() { i, err := mi.obj.Snapshot(); check(err); sinkImg = i })
	m["wire.encode_image_ns"], _ = timeIt(func() { sinkBytes = wire.EncodeImage(img) })
	m["wire.decode_image_ns"], _ = timeIt(func() { i, err := wire.DecodeImage(enc); check(err); sinkImg = i })
	m["wire.image_bytes"] = float64(len(enc))
	m["core.from_image_ns"], _ = timeIt(func() { o, err := core.FromImage(img, reg, host...); check(err); sink = o })
	m["core.build_object_ns"], _ = timeIt(func() { o, err := mi.build(); check(err); sink = o })

	// transport: a handler that does nothing, the same payload sizes.
	echo := func(context.Context, string, []byte) ([]byte, error) { return rsp, nil }
	ctx := context.Background()
	lis, err := transport.ListenTCP("127.0.0.1:0", echo)
	if err != nil {
		return err
	}
	defer lis.Close()
	bare, err := transport.DialTCP(lis.Addr())
	if err != nil {
		return err
	}
	defer bare.Close()
	m["transport.null_call_tcp_ns"], m["transport.null_call_allocs"] = timeIt(func() { _, err := bare.Call(ctx, verb, req); check(err) })
	inner, err := transport.DialTCP(lis.Addr())
	if err != nil {
		return err
	}
	res := transport.NewResilientConn(inner, func() (transport.Conn, error) { return transport.DialTCP(lis.Addr()) }, transport.ResilientPolicy{})
	defer res.Close()
	guarded, _ := timeIt(func() { _, err := res.Call(ctx, verb, req); check(err) })
	m["transport.resilient_overhead_ns"] = guarded - m["transport.null_call_tcp_ns"]
	inproc := transport.NewInProcNet()
	plis, err := inproc.Listen("echo", echo)
	if err != nil {
		return err
	}
	defer plis.Close()
	pconn, err := inproc.Dial("echo")
	if err != nil {
		return err
	}
	defer pconn.Close()
	m["transport.null_call_inproc_ns"], _ = timeIt(func() { _, err := pconn.Call(ctx, verb, req); check(err) })

	// naming.
	id := caller.Object.String()
	m["naming.parse_id_ns"], _ = timeIt(func() { i, err := naming.ParseID(id); check(err); sinkID = i })
	gen := naming.NewGenerator("mirror")
	m["naming.new_id_ns"], _ = timeIt(func() { sinkID = gen.New() })
	registry := naming.NewRegistry()
	names := apoNames("apo", rpcPop)
	for _, name := range names {
		oid := gen.New()
		registry.Register(oid, obj)
		check(registry.Bind(name, oid))
	}
	turn := 0
	m["naming.registry_lookup_ns"], _ = timeIt(func() {
		turn++
		o, err := registry.Lookup(names[turn*7919%len(names)])
		check(err)
		sink = o
	})
	m["hadas.home_lookup_ns"], _ = timeIt(func() { o, err := mi.site.APO(mi.name); check(err); sink = o })

	// security: the 17-entry ACL of the local workloads' guarded method,
	// and an empty ACL that falls through to the policy default.
	entries := make([]security.Entry, 0, 17)
	for i := 0; i < 16; i++ {
		entries = append(entries, security.DenyObject(gen.New()))
	}
	acl := security.NewACL(append(entries, security.AllowDomain(site.Domain()))...)
	m["security.decide_ns"], _ = timeIt(func() {
		err, _ := security.Decide(acl, site.Policy(), caller, security.ActionInvoke, "guarded")
		check(err)
	})
	m["security.decide_policy_ns"], _ = timeIt(func() {
		err, _ := security.Decide(security.ACL{}, site.Policy(), caller, security.ActionInvoke, "work")
		check(err)
	})

	// mscript.
	if len(mi.scripts) > 0 {
		m["mscript.parse_fn_ns"], _ = timeIt(func() {
			for _, src := range mi.scripts {
				fn, err := mscript.ParseFunction(src)
				check(err)
				sink = fn
			}
		})
	}

	// core: warm dispatch on an object of the local workloads' class.
	one, zero := value.NewInt(1), value.NewInt(0)
	sWork, sTmp, sInvoke := value.NewString("work"), value.NewString("tmp"), value.NewString("invoke")
	workArgs := value.NewListOf(one)
	invoke := func(p security.Principal, method string, args ...value.Value) {
		v, err := obj.Invoke(p, method, args...)
		check(err)
		sinkVal = v
	}
	m["core.invoke_native_ns"], _ = timeIt(func() { invoke(caller, "work", one) })
	m["core.invoke_ext_ns"], _ = timeIt(func() { invoke(caller, "workExt", one) })
	m["core.invoke_meta_ns"], _ = timeIt(func() { invoke(caller, "invoke", sWork, workArgs) })
	m["core.get_ns"], _ = timeIt(func() { v, err := obj.Get(caller, "n"); check(err); sinkVal = v })
	var ring [callerRing]security.Principal
	for i := range ring {
		ring[i] = principalAt(site)
	}
	m["core.invoke_alt_caller_ns"], _ = timeIt(func() { turn++; invoke(ring[turn%callerRing], "work", one) })
	m["core.invoke_script_ns"], _ = timeIt(func() { invoke(caller, "bump", zero) })
	m["mscript.script_overhead_ns"] = m["core.invoke_script_ns"] - m["core.invoke_native_ns"]
	tmpBody := value.NewString(tmpSrc)
	m["core.mutate_pair_ns"], _ = timeIt(func() {
		invoke(caller, "addMethod", sTmp, tmpBody)
		invoke(caller, "deleteMethod", sTmp)
	})
	push := value.NewMap(map[string]value.Value{
		"body": core.DescriptorToValue(core.BodyDescriptor{Kind: core.BodyNative, Name: behaviorPass}),
	})
	pushPop := func() {
		invoke(caller, "setMethod", sInvoke, push)
		invoke(caller, "deleteMethod", sInvoke)
	}
	m["core.level_push_pop_ns"], _ = timeIt(pushPop)
	// The first call after a structural bump, one timed call per bump.
	first := make([]float64, 201)
	for i := range first {
		pushPop()
		start := time.Now()
		invoke(caller, "work", one)
		first[i] = float64(time.Since(start))
	}
	sort.Float64s(first)
	m["core.invoke_after_mutate_ns"] = first[len(first)/2]
	if mi.target != nil {
		m["core.target_invoke_ns"], _ = timeIt(func() { check(mi.target()) })
	}
	return firstErr
}
