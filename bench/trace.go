package main

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/persist"
	"repro/internal/transport"
	"repro/internal/value"
)

// Span names. The tracer sits outside the program: spans open and close in
// the three wrappers the harness hands a Site through its public
// configuration (Config.Dial, Config.Store, Site.Behaviors) and around
// the op itself.
const (
	spanOp     = "op"
	spanCall   = "transport.call"
	spanBody   = "core.body"
	spanPut    = "persist.put"
	spanPutAll = "persist.putall"
	spanGet    = "persist.get"
	spanDelete = "persist.delete"
	spanList   = "persist.list"
	spanSync   = "persist.sync"
)

// spanOutsideOp is the op id of a span recorded between ops.
const spanOutsideOp = -1

// span is one traced interval; times are nanoseconds since the tracer's
// epoch. Parent is an index into the same slice (-1 for an op span).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
}

// tracer records spans and counts in memory while armed. Installed but
// disarmed, each wrapper costs one atomic load and no allocation, which
// is how the traced invocation also measures its own untraced baseline.
type tracer struct {
	armed atomic.Bool
	epoch time.Time
	op    atomic.Int64 // id of the op in flight, spanOutsideOp between ops

	mu    sync.Mutex
	spans []span

	calls, callBytes       int64
	puts, deletes, putSize int64

	// The last hadas.invoke / hadas.dispatch request and its reply, copied
	// for the stage mirrors to replay through one layer at a time.
	reqVerb  string
	req, rsp []byte
}

func newTracer(capacity int) *tracer {
	t := &tracer{epoch: time.Now(), spans: make([]span, 0, capacity)}
	t.op.Store(spanOutsideOp)
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(name string, start, end int64) {
	op := int(t.op.Load())
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: start, End: end, Op: op, Parent: -1})
	t.mu.Unlock()
}

// ---- transport.Conn wrapper ----

// traceConn times every Call made through a peer connection.
type traceConn struct {
	inner transport.Conn
	tr    *tracer
}

// traceMultiConn is traceConn over a connection that pipelines: it keeps
// the transport.MultiCaller face, so a wrapped TCP connection still sends
// a fan-out batch in one round trip instead of falling back to DoMulti's
// goroutine per call.
type traceMultiConn struct {
	traceConn
	multi transport.MultiCaller
}

// wrapConn returns a tracing Conn exposing exactly the optional
// interfaces inner has.
func wrapConn(inner transport.Conn, tr *tracer) transport.Conn {
	base := traceConn{inner: inner, tr: tr}
	if mc, ok := inner.(transport.MultiCaller); ok {
		return &traceMultiConn{traceConn: base, multi: mc}
	}
	return &base
}

func (c *traceConn) Call(ctx context.Context, verb string, payload []byte) ([]byte, error) {
	if !c.tr.armed.Load() {
		return c.inner.Call(ctx, verb, payload)
	}
	start := c.tr.now()
	out, err := c.inner.Call(ctx, verb, payload)
	end := c.tr.now()
	c.tr.add(spanCall, start, end)
	c.tr.mu.Lock()
	c.tr.calls++
	c.tr.callBytes += int64(len(payload) + len(out))
	if err == nil && (c.tr.req == nil || verb == c.tr.reqVerb) {
		c.tr.reqVerb = verb
		c.tr.req = append(c.tr.req[:0], payload...)
		c.tr.rsp = append(c.tr.rsp[:0], out...)
	}
	c.tr.mu.Unlock()
	return out, err
}

func (c *traceConn) Ping(ctx context.Context) error { return c.inner.Ping(ctx) }
func (c *traceConn) Close() error                   { return c.inner.Close() }

func (c *traceMultiConn) CallMulti(ctx context.Context, reqs []transport.MultiRequest) []transport.MultiResult {
	if !c.tr.armed.Load() {
		return c.multi.CallMulti(ctx, reqs)
	}
	start := c.tr.now()
	out := c.multi.CallMulti(ctx, reqs)
	c.tr.add(spanCall, start, c.tr.now())
	c.tr.mu.Lock()
	c.tr.calls += int64(len(reqs))
	for i := range reqs {
		c.tr.callBytes += int64(len(reqs[i].Payload) + len(out[i].Payload))
	}
	c.tr.mu.Unlock()
	return out
}

// ---- persist.Backend wrapper ----

// traceStore times every operation a Site makes on its store.
type traceStore struct {
	inner persist.Backend
	tr    *tracer
}

func wrapStore(inner persist.Backend, tr *tracer) persist.Backend {
	return &traceStore{inner: inner, tr: tr}
}

func (s *traceStore) timed(name string, f func() error) error {
	if !s.tr.armed.Load() {
		return f()
	}
	start := s.tr.now()
	err := f()
	s.tr.add(name, start, s.tr.now())
	return err
}

func (s *traceStore) count(puts, deletes, size int) {
	if !s.tr.armed.Load() {
		return
	}
	s.tr.mu.Lock()
	s.tr.puts += int64(puts)
	s.tr.deletes += int64(deletes)
	s.tr.putSize += int64(size)
	s.tr.mu.Unlock()
}

func (s *traceStore) Put(slot string, data []byte) error {
	s.count(1, 0, len(data))
	return s.timed(spanPut, func() error { return s.inner.Put(slot, data) })
}

func (s *traceStore) PutAll(batch map[string][]byte) error {
	size := 0
	for _, d := range batch {
		size += len(d)
	}
	s.count(len(batch), 0, size)
	return s.timed(spanPutAll, func() error { return s.inner.PutAll(batch) })
}

func (s *traceStore) Get(slot string) (data []byte, err error) {
	err = s.timed(spanGet, func() error { data, err = s.inner.Get(slot); return err })
	return data, err
}

func (s *traceStore) Delete(slot string) error {
	s.count(0, 1, 0)
	return s.timed(spanDelete, func() error { return s.inner.Delete(slot) })
}

func (s *traceStore) List() (slots []string, err error) {
	err = s.timed(spanList, func() error { slots, err = s.inner.List(); return err })
	return slots, err
}

func (s *traceStore) Sync() error  { return s.timed(spanSync, s.inner.Sync) }
func (s *traceStore) Close() error { return s.inner.Close() }

// ---- native body wrapper ----

// wrapBody stamps entry and exit of a harness-registered native body.
func wrapBody(fn core.NativeFunc, tr *tracer) core.NativeFunc {
	return func(inv *core.Invocation, args []value.Value) (value.Value, error) {
		if !tr.armed.Load() {
			return fn(inv, args)
		}
		start := tr.now()
		v, err := fn(inv, args)
		tr.add(spanBody, start, tr.now())
		return v, err
	}
}

// ---- attribution ----

// opBreakdown is one op's time split by span name. Self times partition
// the op interval exactly: at every instant the time belongs to the
// innermost span open at that instant, so they sum to the op's duration.
type opBreakdown struct {
	total int64
	self  map[string]int64 // self time by span name
	incl  map[string]int64 // summed inclusive duration by span name
}

// attribute assigns parents by time containment — valid because the traced
// run keeps one op in flight, so every span opened on either site while the
// op runs belongs to it — and computes per-op self times. Spans are clipped
// to their op's interval; spans recorded between ops are left unparented.
func (t *tracer) attribute() []opBreakdown {
	byOp := map[int][]int{}
	var ops []int
	for i, s := range t.spans {
		if s.Op == spanOutsideOp {
			continue
		}
		if _, seen := byOp[s.Op]; !seen {
			ops = append(ops, s.Op)
		}
		byOp[s.Op] = append(byOp[s.Op], i)
	}
	sort.Ints(ops)
	out := make([]opBreakdown, 0, len(ops))
	for _, op := range ops {
		idx := byOp[op]
		root := -1
		for _, i := range idx {
			if t.spans[i].Name == spanOp {
				root = i
			}
		}
		if root < 0 {
			continue
		}
		lo, hi := t.spans[root].Start, t.spans[root].End
		// Outermost first: by start, then longer span first.
		sort.Slice(idx, func(a, b int) bool {
			sa, sb := t.spans[idx[a]], t.spans[idx[b]]
			if idx[a] == root || idx[b] == root {
				return idx[a] == root
			}
			if sa.Start != sb.Start {
				return sa.Start < sb.Start
			}
			return sa.End > sb.End
		})
		b := opBreakdown{total: hi - lo, self: map[string]int64{}, incl: map[string]int64{}}
		type edge struct {
			at   int64
			open bool
			i    int
		}
		edges := make([]edge, 0, 2*len(idx))
		for _, i := range idx {
			s := &t.spans[i]
			s.Start, s.End = max(s.Start, lo), min(max(s.End, lo), hi)
			b.incl[s.Name] += s.End - s.Start
			edges = append(edges, edge{s.Start, true, i}, edge{s.End, false, i})
		}
		// Stable: equal-time edges keep outermost-first order, so a child
		// that starts with its parent still nests inside it.
		sort.SliceStable(edges, func(a, b int) bool { return edges[a].at < edges[b].at })
		var open []int // spans open now, innermost last
		last := lo
		for _, e := range edges {
			if n := len(open); n > 0 {
				b.self[t.spans[open[n-1]].Name] += e.at - last
			}
			last = e.at
			if e.open {
				if n := len(open); n > 0 && e.i != root {
					t.spans[e.i].Parent = open[n-1]
				}
				open = append(open, e.i)
				continue
			}
			for k := len(open) - 1; k >= 0; k-- {
				if open[k] == e.i {
					open = append(open[:k], open[k+1:]...)
					break
				}
			}
		}
		out = append(out, b)
	}
	return out
}
