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

const (
	bumpSrc = `fn(d) { self.n = self.n + d; return self.n; }`
	tmpSrc  = `fn(x) { return x + 1; }`
)

// localWorkload: one site, no network, no store. local-reflect reads
// through every dispatch flavour with rotating callers and no structural
// mutation; local-mutate interleaves structural writes with reads.
type localWorkload struct {
	mutate   bool
	site     *hadas.Site
	objs     []*core.Object
	bumps    []int64 // expected value of n, per object (local-reflect)
	callers  [callerRing]security.Principal
	turn     [2]ringPos // per-client position in the caller ring
	baseline structure

	// Constant arguments, built once so an op adds no harness allocations
	// beyond the variadic call frames.
	sWork, sWorkExt, sN, sTmp, sInvoke, sScratch value.Value
	tmpBody, setN, pushLevel                     value.Value
}

// ringPos is padded to a cache line: the two clients advance theirs on
// every call and must not share one.
type ringPos struct {
	n int
	_ [56]byte
}

// structure is what local-mutate must leave unchanged.
type structure struct {
	methods, data string
	levels        int
}

func structureOf(o *core.Object) structure {
	p := o.Principal()
	return structure{fmt.Sprint(o.MethodNames(p)), fmt.Sprint(o.DataItemNames(p)), o.InvokeLevelCount()}
}

// buildLocalObject is the population member of both local workloads, and
// the object the core stage mirrors run on.
func buildLocalObject(s *hadas.Site, i int) (*core.Object, error) {
	entries := make([]security.Entry, 0, 17)
	for k := 0; k < 16; k++ {
		entries = append(entries, security.DenyObject(s.Generator().New())) // never matches a caller
	}
	entries = append(entries, security.AllowDomain(s.Domain()))
	echo := lookupBody(s, behaviorEcho)
	b := s.NewAPOBuilder("Reflective")
	b.FixedData("idx", value.NewInt(int64(i)))
	b.ExtData("n", value.NewInt(0))
	b.FixedMethod("work", echo)
	b.ExtMethod("workExt", echo)
	b.FixedMethod("guarded", echo, core.WithACL(security.NewACL(entries...)))
	b.FixedScriptMethod("bump", bumpSrc)
	return b.Build()
}

func (w *localWorkload) setup(e *env) (err error) {
	if w.site, err = newSite(e, "solo", nil); err != nil {
		return err
	}
	names := apoNames("obj", e.pop(localPop))
	w.objs = make([]*core.Object, len(names))
	w.bumps = make([]int64, len(names))
	batch := make(map[string]*core.Object, len(names))
	for i, name := range names {
		if w.objs[i], err = buildLocalObject(w.site, i); err != nil {
			return err
		}
		batch[name] = w.objs[i]
	}
	start := time.Now()
	if err := w.site.AddAPOs(batch); err != nil {
		return err
	}
	e.parts.addAPOsNsPerAPO = float64(time.Since(start)) / float64(len(batch))
	// Ops resolve their object by name, as an application would.
	for i, name := range names {
		if w.objs[i], err = w.site.APO(name); err != nil {
			return err
		}
	}
	for k := range w.callers {
		w.callers[k] = principalAt(w.site)
	}
	w.baseline = structureOf(w.objs[0])
	w.sWork, w.sWorkExt = value.NewString("work"), value.NewString("workExt")
	w.sN, w.sTmp = value.NewString("n"), value.NewString("tmp")
	w.sInvoke, w.sScratch = value.NewString("invoke"), value.NewString("scratch")
	w.tmpBody = value.NewString(tmpSrc)
	w.setN = value.NewMap(map[string]value.Value{"value": value.NewInt(7)})
	w.pushLevel = value.NewMap(map[string]value.Value{
		"body": core.DescriptorToValue(core.BodyDescriptor{Kind: core.BodyNative, Name: behaviorPass}),
	})
	return nil
}

// next returns client c's next caller: principals rotate call by call, so
// a one-entry (monomorphic) decision cache never serves two calls running.
func (w *localWorkload) next(c int) security.Principal {
	w.turn[c].n++
	return w.callers[w.turn[c].n%callerRing]
}

// prefill has every caller make every read of local-reflect on every
// object once. The decision caches hold one entry per (object, item,
// caller); at 16 384 objects the ops would take tens of seconds to fill
// them, and until then a run measures the fill, not the warm path.
func (w *localWorkload) prefill() error {
	if w.mutate {
		return nil // every op flushes what it touches
	}
	for _, obj := range w.objs {
		for _, p := range w.callers {
			for _, m := range []string{"work", "workExt", "guarded"} {
				if _, err := obj.Invoke(p, m, value.NewInt(0)); err != nil {
					return err
				}
			}
			if _, err := obj.Invoke(p, "invoke", w.sWork, value.NewListOf(value.NewInt(0))); err != nil {
				return err
			}
			if _, err := obj.Get(p, "n"); err != nil {
				return err
			}
			if _, err := obj.Invoke(p, "bump", value.NewInt(0)); err != nil {
				return err
			}
		}
	}
	return nil
}

func (w *localWorkload) op(c int, rng *rand.Rand) error {
	// Objects are partitioned by client, so per-object expectations need
	// no lock and two clients never mutate one object.
	half := len(w.objs) / 2
	i := c*half + rng.Intn(half)
	obj := w.objs[i]
	if w.mutate {
		return w.mutateOp(c, obj)
	}
	for k := int64(0); k < 16; k++ {
		v, err := obj.Invoke(w.next(c), "work", value.NewInt(k))
		if err != nil {
			return err
		}
		if err := wantInt(v, k, "work"); err != nil {
			return err
		}
		if v, err = obj.Invoke(w.next(c), "workExt", value.NewInt(k)); err != nil {
			return err
		}
		if err := wantInt(v, k, "workExt"); err != nil {
			return err
		}
		if v, err = obj.Get(w.next(c), "n"); err != nil {
			return err
		}
		if err := wantInt(v, w.bumps[i], "n"); err != nil {
			return err
		}
		if v, err = obj.Invoke(w.next(c), "invoke", w.sWork, value.NewListOf(value.NewInt(k))); err != nil {
			return err
		}
		if err := wantInt(v, k, "invoke(work)"); err != nil {
			return err
		}
		w.turn[c].n++ // 5 steps per round of 4 calls: every method meets every caller
	}
	v, err := obj.Invoke(w.next(c), "guarded", value.NewInt(17))
	if err != nil {
		return err
	}
	if err := wantInt(v, 17, "guarded"); err != nil {
		return err
	}
	if v, err = obj.Invoke(w.next(c), "bump", value.NewInt(1)); err != nil {
		return err
	}
	w.bumps[i]++
	return wantInt(v, w.bumps[i], "bump")
}

func (w *localWorkload) mutateOp(c int, obj *core.Object) error {
	works := func(n int64) error {
		for k := int64(0); k < n; k++ {
			v, err := obj.Invoke(w.next(c), "work", value.NewInt(k))
			if err != nil {
				return err
			}
			if err := wantInt(v, k, "work"); err != nil {
				return err
			}
		}
		return nil
	}
	if _, err := obj.Invoke(w.next(c), "addMethod", w.sTmp, w.tmpBody); err != nil {
		return err
	}
	v, err := obj.Invoke(w.next(c), "tmp", value.NewInt(41))
	if err != nil {
		return err
	}
	if err := wantInt(v, 42, "tmp"); err != nil {
		return err
	}
	if err := works(8); err != nil {
		return err
	}
	if _, err := obj.Invoke(w.next(c), "setDataItem", w.sN, w.setN); err != nil {
		return err
	}
	if _, err := obj.Invoke(w.next(c), "addDataItem", w.sScratch, value.NewInt(1)); err != nil {
		return err
	}
	if _, err := obj.Invoke(w.next(c), "deleteDataItem", w.sScratch); err != nil {
		return err
	}
	if _, err := obj.Invoke(w.next(c), "setMethod", w.sInvoke, w.pushLevel); err != nil {
		return err
	}
	if err := works(4); err != nil {
		return err
	}
	if _, err := obj.Invoke(w.next(c), "deleteMethod", w.sInvoke); err != nil {
		return err
	}
	_, err = obj.Invoke(w.next(c), "deleteMethod", w.sTmp)
	return err
}

func (w *localWorkload) check() error {
	if !w.mutate {
		return nil
	}
	for i, obj := range w.objs {
		if got := structureOf(obj); got != w.baseline {
			return fmt.Errorf("object %d: structure %+v, want baseline %+v", i, got, w.baseline)
		}
	}
	return nil
}

func (w *localWorkload) mirror() mirrorInfo {
	mi := mirrorInfo{
		site: w.site, name: "obj-00000", obj: w.objs[0],
		build:   func() (*core.Object, error) { return buildLocalObject(w.site, 0) },
		scripts: []string{bumpSrc},
		path: func(m map[string]float64) float64 {
			return 16*(m["core.invoke_native_ns"]+m["core.invoke_ext_ns"]+m["core.get_ns"]+m["core.invoke_meta_ns"]) +
				m["core.invoke_alt_caller_ns"] + m["core.invoke_script_ns"]
		},
	}
	if w.mutate {
		mi.scripts = append(mi.scripts, tmpSrc)
		mi.path = func(m map[string]float64) float64 {
			return m["core.mutate_pair_ns"] + m["mscript.parse_fn_ns"] + m["core.invoke_script_ns"] +
				12*m["core.invoke_native_ns"] + m["core.level_push_pop_ns"] + 2*m["core.invoke_after_mutate_ns"]
		}
	}
	return mi
}

func (w *localWorkload) close() { closeSites(w.site) }
