package core

// TestDetectorMatchesCycleModel holds the deadlock Detector to a plain
// model of what it must find. A random waits-for state spreads chains over
// one to three in-process detectors joined by meshForwarder: every object
// has one holder, and every chain incarnation at a site either waits on
// one object there, is off inside a remote call to one peer, or does
// neither. The model follows those pointers from every blocked chain with
// a visited set; a walk that reaches a holder with the initiator's
// identity is a cycle, and its victim is the lowest identity on it,
// blocked on the object the cycle names. The detector, chasing from the
// same chains, must abort exactly those waits and nothing else.

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
)

// cycleState is one waits-for state, by index: chains[i] is chain i's
// origin site, objs its objects, edges the chains' waits and remote calls.
type cycleState struct {
	sites  int
	chains []int
	objs   []cycleObj
	edges  []cycleEdge
}

type cycleObj struct{ site, holder int }

// cycleEdge is chain's incarnation at site waiting on obj, or (obj < 0)
// inside a remote call to peer.
type cycleEdge struct{ chain, site, obj, peer int }

func (st cycleState) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d site(s), chain origins %v", st.sites, st.chains)
	for i, o := range st.objs {
		fmt.Fprintf(&b, "\n  obj%d at s%d held by c%d", i, o.site, o.holder)
	}
	for _, e := range st.edges {
		if e.obj >= 0 {
			fmt.Fprintf(&b, "\n  c%d at s%d waits for obj%d", e.chain, e.site, e.obj)
		} else {
			fmt.Fprintf(&b, "\n  c%d at s%d calls s%d", e.chain, e.site, e.peer)
		}
	}
	return b.String()
}

func randomCycleState(rng *rand.Rand) cycleState {
	st := cycleState{sites: 1 + rng.Intn(3)}
	for i := 2 + rng.Intn(5); i > 0; i-- {
		st.chains = append(st.chains, rng.Intn(st.sites))
	}
	for i := 1 + rng.Intn(2*st.sites+2); i > 0; i-- {
		st.objs = append(st.objs, cycleObj{site: rng.Intn(st.sites), holder: rng.Intn(len(st.chains))})
	}
	for c := range st.chains {
		for s := 0; s < st.sites; s++ {
			switch r := rng.Intn(5); {
			case r < 3: // wait on an object here that another chain holds
				var free []int
				for i, o := range st.objs {
					if o.site == s && o.holder != c {
						free = append(free, i)
					}
				}
				if len(free) > 0 {
					st.edges = append(st.edges, cycleEdge{chain: c, site: s, obj: free[rng.Intn(len(free))]})
				}
			case r == 3 && st.sites > 1:
				st.edges = append(st.edges, cycleEdge{chain: c, site: s, obj: -1, peer: (s + 1 + rng.Intn(st.sites-1)) % st.sites})
			}
		}
	}
	rng.Shuffle(len(st.edges), func(i, j int) { st.edges[i], st.edges[j] = st.edges[j], st.edges[i] })
	return st
}

// modelAborts is the plain model: site/gid of every wait that must abort.
// less orders chain identities (origin site, then mint sequence).
func (st cycleState) modelAborts(gids []string, less func(a, b int) bool) map[string]bool {
	type inc struct{ site, chain int }
	wait, call := map[inc]int{}, map[inc]int{}
	for _, e := range st.edges {
		if e.obj >= 0 {
			wait[inc{e.site, e.chain}] = e.obj
		} else {
			call[inc{e.site, e.chain}] = e.peer
		}
	}
	aborts := map[string]bool{}
	for _, e := range st.edges {
		if e.obj < 0 {
			continue
		}
		type step struct{ chain, obj int }
		var steps []step
		seen := map[inc]bool{}
		for cur := (inc{e.site, e.chain}); !seen[cur]; {
			seen[cur] = true
			if o, ok := wait[cur]; ok {
				steps = append(steps, step{cur.chain, o})
				if h := st.objs[o].holder; h != e.chain {
					cur = inc{cur.site, h}
					continue
				}
				victim := steps[0]
				for _, s := range steps[1:] {
					if less(s.chain, victim.chain) {
						victim = s
					}
				}
				aborts[fmt.Sprintf("s%d/%s", st.objs[victim.obj].site, gids[victim.chain])] = true
				break
			}
			p, ok := call[cur]
			if !ok {
				break
			}
			cur = inc{p, cur.chain}
		}
	}
	return aborts
}

// run builds st over fresh detectors, lets them chase from every blocked
// chain, and compares the aborts with the model's. A single-site state
// blocks through blockBegin, whose zero-hop walk must deliver a local
// cycle's verdict before it returns; a multi-site state is written into
// the detectors' edges and chased one initiator at a time.
func (st cycleState) run() error {
	mesh := newMesh()
	dets := make([]*Detector, st.sites)
	for s := range dets {
		dets[s] = mesh.add(fmt.Sprintf("s%d", s))
	}
	objs := make([]*Object, len(st.objs))
	for i := range st.objs {
		objs[i] = NewBuilder(gen, fmt.Sprintf("O%d", i), WithPolicy(allowAllPolicy()), Serialized()).MustBuild()
	}
	gids := make([]string, len(st.chains))
	seq := make([]uint64, len(st.chains))
	incs := make([]map[int]*callChain, st.sites)
	for s := range incs {
		incs[s] = map[int]*callChain{}
	}
	for c, origin := range st.chains {
		ch := newCallChain(objs[0], "m")
		dets[origin].mu.Lock()
		gids[c] = dets[origin].register(ch)
		dets[origin].mu.Unlock()
		seq[c], incs[origin][c] = ch.id, ch
	}
	inc := func(site, c int) *callChain {
		if incs[site][c] == nil {
			ac, _ := dets[site].Adopt(gids[c])
			incs[site][c] = ac.ch
		}
		return incs[site][c]
	}
	for i, o := range st.objs {
		h := inc(o.site, o.holder)
		dets[o.site].mu.Lock()
		dets[o.site].holder[objs[i]] = h
		dets[o.site].mu.Unlock()
	}
	for _, e := range st.edges {
		if e.obj < 0 {
			inc(e.peer, e.chain)
			ch := inc(e.site, e.chain)
			dets[e.site].mu.Lock()
			dets[e.site].outbound[ch] = &outboundEdge{peer: fmt.Sprintf("s%d", e.peer), n: 1}
			dets[e.site].mu.Unlock()
		}
	}

	type blocked struct {
		key   string
		abort <-chan string
	}
	var waits []blocked
	for _, e := range st.edges {
		if e.obj < 0 {
			continue
		}
		d, ch := dets[e.site], inc(e.site, e.chain)
		key := fmt.Sprintf("s%d/%s", e.site, gids[e.chain])
		if st.sites == 1 {
			abort, end := d.blockBegin(ch, objs[e.obj])
			defer end()
			waits = append(waits, blocked{key, abort})
			continue
		}
		bw := &blockedWait{obj: objs[e.obj], abort: make(chan string, 1), done: make(chan struct{})}
		d.mu.Lock()
		d.blocked[ch] = bw
		d.mu.Unlock()
		waits = append(waits, blocked{key, bw.abort})
	}
	if st.sites > 1 {
		for _, e := range st.edges {
			if e.obj < 0 {
				continue
			}
			for _, d := range dets { // each chase starts outside every dedup window
				d.mu.Lock()
				clear(d.seen)
				d.mu.Unlock()
			}
			d := dets[e.site]
			d.mu.Lock()
			res := d.walk(gids[e.chain], inc(e.site, e.chain), nil)
			d.mu.Unlock()
			d.act(gids[e.chain], res, DefaultProbeTTL)
		}
	}

	got := map[string]bool{}
	for _, w := range waits {
		select {
		case desc := <-w.abort:
			gid := w.key[strings.IndexByte(w.key, '/')+1:]
			if !strings.Contains(desc, gid) {
				return fmt.Errorf("abort of %s does not name its victim: %s", w.key, desc)
			}
			got[w.key] = true
		default:
		}
	}
	want := st.modelAborts(gids, func(a, b int) bool {
		if st.chains[a] != st.chains[b] {
			return st.chains[a] < st.chains[b]
		}
		return seq[a] < seq[b]
	})
	if g, w := sortedKeys(got), sortedKeys(want); !slices.Equal(g, w) {
		return fmt.Errorf("detector aborted %v, model aborts %v", g, w)
	}
	return nil
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// shrink drops edges, then objects (with the waits on them), while the
// state still fails.
func (st cycleState) shrink(err error) (cycleState, error) {
	for shrunk := true; shrunk; {
		shrunk = false
		for i := range st.edges {
			less := st
			less.edges = append(append([]cycleEdge(nil), st.edges[:i]...), st.edges[i+1:]...)
			if e := less.run(); e != nil {
				st, err, shrunk = less, e, true
				break
			}
		}
		for i := 0; !shrunk && i < len(st.objs) && len(st.objs) > 1; i++ {
			less := st
			less.objs = append(append([]cycleObj(nil), st.objs[:i]...), st.objs[i+1:]...)
			less.edges = nil
			for _, e := range st.edges {
				switch {
				case e.obj == i:
					continue
				case e.obj > i:
					e.obj--
				}
				less.edges = append(less.edges, e)
			}
			if e := less.run(); e != nil {
				st, err, shrunk = less, e, true
			}
		}
	}
	return st, err
}

func TestDetectorMatchesCycleModel(t *testing.T) {
	cycles := 0
	for seed := int64(1); seed <= 200; seed++ {
		st := randomCycleState(rand.New(rand.NewSource(seed)))
		if err := st.run(); err != nil {
			st, err = st.shrink(err)
			t.Fatalf("seed %d: %v\nminimal state: %v", seed, err, st)
		}
		if len(st.modelAborts(make([]string, len(st.chains)), func(a, b int) bool { return a < b })) > 0 {
			cycles++
		}
	}
	if cycles < 40 {
		t.Errorf("only %d of 200 states hold a cycle; the generator is too sparse", cycles)
	}
}
