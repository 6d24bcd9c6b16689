package main

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/persist"
	"repro/internal/transport"
)

func quickConfig(t *testing.T) runConfig {
	t.Helper()
	return runConfig{seed: 1, seconds: 0.3, warm: 0.05, episodes: 1, quick: true, workDir: t.TempDir()}
}

// sameNames reports the metrics a run emitted but the harness does not
// declare, and the other way round.
func sameNames(t *testing.T, kind string, got map[string]float64, defs []metricDef) {
	t.Helper()
	declared := map[string]bool{}
	for _, d := range defs {
		declared[d.Name] = true
		if _, ok := got[d.Name]; !ok {
			t.Errorf("%s run does not emit %s", kind, d.Name)
		}
	}
	for name := range got {
		if !declared[name] {
			t.Errorf("%s run emits undeclared %s", kind, name)
		}
	}
}

// TestQuickSmoke runs every workload, untraced and traced, at smoke size:
// all ops verify, end states hold, and each run emits exactly the metrics
// the harness declares.
func TestQuickSmoke(t *testing.T) {
	for _, sp := range specs {
		sp := sp
		t.Run(sp.name, func(t *testing.T) {
			cfg := quickConfig(t)
			res, err := runRep(sp, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 10 {
				t.Fatalf("untraced: correct=%v failed=%d attempted=%d error=%q", res.Correct, res.Failed, res.Attempted, res.Error)
			}
			sameNames(t, "untraced", res.Metrics, endToEnd)
			for name, v := range res.Metrics {
				if !(v > 0) || math.IsInf(v, 0) {
					t.Errorf("end-to-end metric %s = %v, want a positive number", name, v)
				}
			}

			res, tr, err := runTraced(sp, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("traced: correct=%v failed=%d error=%q", res.Correct, res.Failed, res.Error)
			}
			sameNames(t, "traced", res.Metrics, perLayer)
			if len(tr.spans) == 0 {
				t.Error("traced run recorded no spans")
			}
			if v := res.Metrics["bench.harness_allocs_per_op"]; v > 0.001 {
				t.Errorf("the harness allocates %v per op on a no-op workload, want 0", v)
			}
		})
	}
}

// TestManifestMatches checks BENCHMARK.json against the harness, both
// directions: workloads, end-to-end metrics with unit, direction and bound,
// per-layer metrics with unit and direction.
func TestManifestMatches(t *testing.T) {
	man, err := readManifest(".")
	if err != nil {
		t.Fatal(err)
	}
	var workloads []string
	for _, w := range man.Workloads {
		workloads = append(workloads, w.Name)
		if sp, ok := findSpec(w.Name); ok && sp.why != w.Why {
			t.Errorf("workload %s: BENCHMARK.json says why %q, harness %q", w.Name, w.Why, sp.why)
		}
	}
	if !reflect.DeepEqual(workloads, specNames()) {
		t.Errorf("BENCHMARK.json workloads %v, harness %v", workloads, specNames())
	}
	same := func(kind string, listed []manifestMetric, defs []metricDef) {
		want := map[string]manifestMetric{}
		for _, d := range defs {
			want[d.Name] = manifestMetric{d.Name, d.Unit, d.Better, d.Bound}
		}
		for _, m := range listed {
			if w, ok := want[m.Name]; !ok {
				t.Errorf("%s metric %s is in BENCHMARK.json but not emitted", kind, m.Name)
			} else if w != m {
				t.Errorf("%s metric %s: BENCHMARK.json %+v, harness %+v", kind, m.Name, m, w)
			}
			delete(want, m.Name)
		}
		for name := range want {
			t.Errorf("%s metric %s is emitted but not in BENCHMARK.json", kind, name)
		}
	}
	same("end-to-end", man.EndToEnd, endToEnd)
	same("per-layer", man.PerLayer, perLayer)
}

// TestRunLeavesNothing drives the command's own entry point for one
// workload and checks that the store directory is gone afterwards.
func TestRunLeavesNothing(t *testing.T) {
	if err := run(options{workload: "agent-durable", seed: 3, seconds: 0.3, reps: 1, quick: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(".work"); !os.IsNotExist(err) {
		t.Errorf("bench/.work is still there after the run (err=%v)", err)
	}
}

// methodSet lists the exported methods of v's dynamic type.
func methodSet(v any) []string {
	typ := reflect.TypeOf(v)
	names := make([]string, typ.NumMethod())
	for i := range names {
		names[i] = typ.Method(i).Name
	}
	return names
}

func interfaceMethods(ifaces ...any) []string {
	var names []string
	for _, p := range ifaces {
		typ := reflect.TypeOf(p).Elem()
		for i := 0; i < typ.NumMethod(); i++ {
			names = append(names, typ.Method(i).Name)
		}
	}
	sort.Strings(names)
	return names
}

// TestWrapperFidelity: a tracing wrapper exposes exactly the interfaces of
// what it wraps. A Conn wrapper that dropped transport.MultiCaller would
// silently turn a pipelined fan-out into a goroutine per call.
func TestWrapperFidelity(t *testing.T) {
	echo := func(_ context.Context, _ string, p []byte) ([]byte, error) { return p, nil }
	lis, err := transport.ListenTCP("127.0.0.1:0", echo)
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	tcp, err := transport.DialTCP(lis.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	net := transport.NewInProcNet()
	plis, err := net.Listen("echo", echo)
	if err != nil {
		t.Fatal(err)
	}
	defer plis.Close()
	inproc, err := net.Dial("echo")
	if err != nil {
		t.Fatal(err)
	}
	defer inproc.Close()

	tr := newTracer(16)
	tr.armed.Store(true)
	for name, inner := range map[string]transport.Conn{"tcp": tcp, "inproc": inproc} {
		wrapped := wrapConn(inner, tr)
		want := interfaceMethods((*transport.Conn)(nil))
		if _, multi := inner.(transport.MultiCaller); multi {
			want = interfaceMethods((*transport.Conn)(nil), (*transport.MultiCaller)(nil))
		}
		if got := methodSet(wrapped); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: wrapper has methods %v, want %v", name, got, want)
		}
		out, err := wrapped.Call(context.Background(), "v", []byte("ping"))
		if err != nil || string(out) != "ping" {
			t.Errorf("%s: Call through the wrapper = %q, %v", name, out, err)
		}
		if mc, ok := wrapped.(transport.MultiCaller); ok {
			res := mc.CallMulti(context.Background(), []transport.MultiRequest{{Verb: "v", Payload: []byte("a")}, {Verb: "v", Payload: []byte("b")}})
			if len(res) != 2 || string(res[0].Payload) != "a" || string(res[1].Payload) != "b" {
				t.Errorf("%s: CallMulti through the wrapper = %+v", name, res)
			}
		}
	}
	if tr.calls != 4 {
		t.Errorf("armed Conn wrappers counted %d calls, want 4", tr.calls)
	}

	rec := &recordingBackend{Backend: persist.NewMemStore()}
	store := wrapStore(rec, tr)
	if got, want := methodSet(store), interfaceMethods((*persist.Backend)(nil)); !reflect.DeepEqual(got, want) {
		t.Errorf("store wrapper has methods %v, want %v", got, want)
	}
	if err := store.PutAll(map[string][]byte{"a": []byte("1"), "b": []byte("22")}); err != nil {
		t.Fatal(err)
	}
	if err := store.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	if want := []string{"PutAll", "Sync", "Close"}; !reflect.DeepEqual(rec.seen, want) {
		t.Errorf("store wrapper forwarded %v, want %v", rec.seen, want)
	}
	if tr.puts != 2 || tr.putSize != 3 {
		t.Errorf("store wrapper counted %d puts of %d bytes, want 2 of 3", tr.puts, tr.putSize)
	}
}

type recordingBackend struct {
	persist.Backend
	seen []string
}

func (r *recordingBackend) PutAll(b map[string][]byte) error {
	r.seen = append(r.seen, "PutAll")
	return r.Backend.PutAll(b)
}
func (r *recordingBackend) Sync() error  { r.seen = append(r.seen, "Sync"); return r.Backend.Sync() }
func (r *recordingBackend) Close() error { r.seen = append(r.seen, "Close"); return r.Backend.Close() }

// TestIdleWrappersAllocateNothing: a workload run with the wrappers
// installed but disarmed has the allocs_per_op of a run without them.
func TestIdleWrappersAllocateNothing(t *testing.T) {
	sp, _ := findSpec("rpc-small")
	allocs := func(tr *tracer) float64 {
		cfg := quickConfig(t)
		cs := newClients(sp.clients, cfg.seed)
		top, err := build(sp, cfg, tr, cs[0])
		if err != nil {
			t.Fatal(err)
		}
		defer top.close()
		runLoad(top.w, cs, 100e6, 1)
		m := runLoad(top.w, cs, 300e6, 3)
		if m.failed != 0 {
			t.Fatalf("%d ops failed: %v", m.failed, m.err)
		}
		return m.median(func(s sliceStat) float64 { return s.Allocs })
	}
	bare, idle := allocs(nil), allocs(newTracer(0))
	if math.Abs(bare-idle) > 0.5 {
		t.Errorf("allocs_per_op %.2f without wrappers, %.2f with idle wrappers", bare, idle)
	}
}

// TestAttributeSumsExactly: self times partition the op span, and parents
// follow containment, including for a span that starts with its parent.
func TestAttributeSumsExactly(t *testing.T) {
	tr := newTracer(8)
	tr.spans = []span{
		{Name: spanCall, Start: 10, End: 90, Op: 0, Parent: -1},
		{Name: spanBody, Start: 40, End: 50, Op: 0, Parent: -1},
		{Name: spanPut, Start: 10, End: 20, Op: 0, Parent: -1},
		{Name: spanOp, Start: 0, End: 100, Op: 0, Parent: -1},
		{Name: spanPut, Start: 95, End: 120, Op: 0, Parent: -1}, // runs past the op: clipped
		{Name: spanGet, Start: 200, End: 210, Op: spanOutsideOp, Parent: -1},
	}
	ops := tr.attribute()
	if len(ops) != 1 {
		t.Fatalf("got %d ops, want 1", len(ops))
	}
	b := ops[0]
	want := map[string]int64{spanOp: 15, spanCall: 60, spanBody: 10, spanPut: 15}
	if !reflect.DeepEqual(b.self, want) {
		t.Errorf("self times %v, want %v", b.self, want)
	}
	var sum int64
	for _, v := range b.self {
		sum += v
	}
	if sum != b.total || b.total != 100 {
		t.Errorf("self times sum to %d, op span is %d, want both 100", sum, b.total)
	}
	if p := tr.spans[1].Parent; p != 0 {
		t.Errorf("core.body's parent is span %d, want 0 (transport.call)", p)
	}
	if p := tr.spans[2].Parent; p != 0 {
		t.Errorf("the put that starts with transport.call has parent %d, want 0", p)
	}
	if p := tr.spans[0].Parent; p != 3 {
		t.Errorf("transport.call's parent is span %d, want 3 (op)", p)
	}
}

func TestHistQuantiles(t *testing.T) {
	var h hist
	for v := int64(1); v <= 100000; v++ {
		h.record(v * 10)
	}
	for _, q := range []float64{0.1, 0.5, 0.99, 0.999} {
		got, want := h.quantile(q), q*1e6
		if math.Abs(got-want)/want > 0.01 {
			t.Errorf("quantile(%v) = %v, want %v within 1%%", q, got, want)
		}
	}
	if got := h.samplesBeyond(0.99); got != 1000 {
		t.Errorf("samplesBeyond(0.99) = %d, want 1000", got)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{5, 1, 3, 2, 4})
	if q1 != 1.5 || q3 != 4.5 {
		t.Errorf("quartiles(1..5) = %v, %v, want 1.5, 4.5", q1, q3)
	}
}

func TestAgree(t *testing.T) {
	man, err := readManifest(".")
	if err != nil {
		t.Fatal(err)
	}
	write := func(scale map[string]float64, iqr float64) string {
		dir := t.TempDir()
		set := setResults{Workloads: map[string]*workloadSummary{}}
		for _, w := range man.Workloads {
			ws := &workloadSummary{Attempted: 100, Correct: true, Metrics: map[string]metricSummary{}}
			for _, d := range man.EndToEnd {
				k := 1.0
				if s, ok := scale[w.Name+"/"+d.Name]; ok {
					k = s
				}
				ws.Metrics[d.Name] = metricSummary{Unit: d.Unit, Median: 100 * k, IQRFrac: iqr}
			}
			set.Workloads[w.Name] = ws
		}
		if err := writeJSON(filepath.Join(dir, "results.json"), set); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	base := write(nil, 0.001)
	if err := agreeRuns(base, write(map[string]float64{"rpc-small/throughput_ops_s": 1.01}, 0.001)); err != nil {
		t.Errorf("sets 1%% apart: %v, want agreement", err)
	}
	if err := agreeRuns(base, write(map[string]float64{"rpc-small/allocs_per_op": 1.5}, 0.001)); err == nil {
		t.Error("sets 50% apart on allocs_per_op agree, want disagreement")
	}
	if err := agreeRuns(base, write(map[string]float64{"rpc-small/allocs_per_op": 1.5}, 0.9)); err != nil {
		t.Errorf("a pair noisier than its bound: %v, want unresolved, not disagreement", err)
	}
}
