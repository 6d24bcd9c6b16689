package hadas

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/persist"
	"repro/internal/transport"
	"repro/internal/wire"
)

// This file tests Home: the container against a plain map read afresh at
// every step, and the admission rule (Site.admit) that keeps Home from
// answering for a name the registry gives to another object.

// TestHomeMatchesMapModel drives a homeContainer and a plain
// map[string]*core.Object with the same seeded random programs over every
// container operation and compares every return value. A failure prints
// the seed and the op prefix that reproduces it.
func TestHomeMatchesMapModel(t *testing.T) {
	const (
		seeds = 200
		steps = 500
		keys  = 12
	)
	seed := newTestSite(t, transport.NewInProcNet(), "seed")
	// Each name has three objects competing for it: two incarnations of one
	// identity (what claim replaces) and a foreign identity (what it must
	// refuse).
	type cast struct{ first, again, foreign *core.Object }
	names := make([]string, keys)
	casts := make([]cast, keys)
	for i := range names {
		names[i] = fmt.Sprintf("apo-%02d", i)
		first := seed.NewAPOBuilder("Member").MustBuild()
		img, err := first.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		again, err := seed.materialize(img)
		if err != nil {
			t.Fatal(err)
		}
		casts[i] = cast{first, again, seed.NewAPOBuilder("Foreign").MustBuild()}
	}

	for s := int64(1); s <= seeds; s++ {
		rng := rand.New(rand.NewSource(s))
		var c homeContainer
		model := map[string]*core.Object{}
		var trace []string
		for step := 0; step < steps; step++ {
			k := rng.Intn(keys)
			name, who := names[k], casts[k]
			// Objects are compared by pointer, never by content: two
			// incarnations of one identity are equal field by field.
			tag := func(o *core.Object) string {
				switch o {
				case nil:
					return "nil"
				case who.first:
					return "first"
				case who.again:
					return "again"
				case who.foreign:
					return "foreign"
				}
				return "an object of another name"
			}
			obj := []*core.Object{who.first, who.again, who.foreign}[rng.Intn(3)]
			cur, present := model[name]

			var op string
			var got, want any
			switch rng.Intn(10) {
			case 0:
				op = fmt.Sprintf("add(%s, %s)", name, tag(obj))
				got, want = c.add(name, obj), !present
				if !present {
					model[name] = obj
				}
			case 1:
				op = fmt.Sprintf("put(%s, %s)", name, tag(obj))
				c.put(name, obj)
				model[name] = obj
			case 2:
				op = fmt.Sprintf("claim(%s, %s)", name, tag(obj))
				conflict := present && cur.ID() != obj.ID()
				got, want = c.claim(name, obj), conflict
				if !conflict {
					model[name] = obj
				}
			case 3:
				op = fmt.Sprintf("remove(%s, nil)", name)
				got, want = c.remove(name, nil), present
				delete(model, name)
			case 4:
				op = fmt.Sprintf("remove(%s, %s)", name, tag(obj))
				got, want = c.remove(name, obj), present && cur == obj
				if present && cur == obj {
					delete(model, name)
				}
			case 5:
				op = fmt.Sprintf("get(%s)", name)
				o, ok := c.get(name)
				got, want = fmt.Sprint(tag(o), ok), fmt.Sprint(tag(cur), present)
			case 6:
				op = fmt.Sprintf("has(%s)", name)
				got, want = c.has(name), present
			case 7:
				op = "len()"
				got, want = c.len(), len(model)
			case 8:
				op = "names()"
				sorted := make([]string, 0, len(model))
				for n := range model {
					sorted = append(sorted, n)
				}
				sort.Strings(sorted)
				got, want = strings.Join(c.names(), " "), strings.Join(sorted, " ")
			case 9:
				op = "entries()"
				entries := c.entries()
				sort.Slice(entries, func(i, j int) bool { return entries[i].name < entries[j].name })
				ok := len(entries) == len(model)
				for i, e := range entries {
					ok = ok && model[e.name] == e.obj && (i == 0 || entries[i-1].name != e.name)
				}
				got, want = ok, true
			}
			trace = append(trace, op)
			if got != want {
				t.Fatalf("seed %d step %d: %s = %v, the map model says %v; ops so far:\n  %s",
					s, step, op, got, want, strings.Join(trace, "\n  "))
			}
		}
	}
}

// tables is what an install may not change when it is refused: Home's
// membership, the holder of the contested name, and whether the rejected
// object is registered.
type tables struct {
	home       string
	holder     *core.Object
	registered bool
}

func tablesOf(s *Site, name string, rejected *core.Object) tables {
	_, err := s.objects.LookupID(rejected.ID())
	holder, _ := s.ResolveObject(name)
	return tables{strings.Join(s.APONames(), " "), holder, err == nil}
}

// ruleSites builds the fixture of the admission-rule tests: site b hosts
// an APO, a's IOO Ambassador (ioo@a) and an imported APO Ambassador
// (payroll@a), so every kind of registry holder is present there.
func ruleSites(t *testing.T) (a, b *Site) {
	t.Helper()
	net := transport.NewInProcNet()
	a = newMigSite(t, net, "a", persist.NewMemStore())
	b = newMigSite(t, net, "b", persist.NewMemStore())
	link(t, a, "b")
	link(t, b, "a")
	addEmployeeDB(t, a)
	if _, err := b.Import("a", "payroll"); err != nil {
		t.Fatal(err)
	}
	inertAgent(t, b, "resident")
	return a, b
}

// TestRefusedAddAPOChangesNothing: AddAPO under a name the registry gives
// to a live object — the IOO, an imported Ambassador, a Vicinity
// Ambassador, an existing APO — fails with core.ErrExists and leaves Home,
// the name's holder and the rejected object exactly as they were. (The
// install used to enter Home before asking the registry, so the rejected
// object kept answering for the name.)
func TestRefusedAddAPOChangesNothing(t *testing.T) {
	_, b := ruleSites(t)
	for _, name := range []string{"ioo", "payroll@a", "ioo@a", "resident"} {
		x := b.NewAPOBuilder("Intruder").MustBuild()
		before := tablesOf(b, name, x)
		if before.holder == nil {
			t.Fatalf("fixture: %q is not bound at b", name)
		}
		if err := b.AddAPO(name, x); !errors.Is(err, core.ErrExists) {
			t.Errorf("AddAPO(%q) = %v, want core.ErrExists", name, err)
		}
		if after := tablesOf(b, name, x); after != before {
			t.Errorf("refused AddAPO(%q) changed the site: %+v, was %+v", name, after, before)
		}
	}
}

// TestArrivalCannotTakeBoundName: an agent dispatched under a name the
// destination's registry gives to another live object is refused before
// anything is installed — it used to claim the name in Home (vacant there)
// and rebind it, replacing the IOO or an Ambassador for every ctx.lookup at
// the destination. The origin sees a definite failure and reinstates. The
// mirror holds too: Import does not take a local name from a Home member.
func TestArrivalCannotTakeBoundName(t *testing.T) {
	a, b := ruleSites(t)

	for _, name := range []string{"ioo", "payroll@a", "ioo@a", "resident"} {
		agent := a.NewAPOBuilder("Intruder").MustBuild()
		img, err := agent.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		before := tablesOf(b, name, agent)
		// Sent as a raw protocol request: the origin's own rule would not
		// let an APO be called "ioo" in the first place.
		req := dispatchReq{Site: "a", Name: name, Agent: wire.EncodeImage(img), MID: a.gen.New().String()}
		var rep dispatchReply
		err = a.callPeer("b", verbDispatch, "", req.Fields, rep.Fields)
		var remote *transport.RemoteError
		if !errors.As(err, &remote) || !strings.Contains(err.Error(), core.ErrExists.Error()) {
			t.Errorf("dispatch under %q = %v, want the destination to answer %v", name, err, core.ErrExists)
		}
		if after := tablesOf(b, name, agent); after != before {
			t.Errorf("refused arrival under %q changed the destination: %+v, was %+v", name, after, before)
		}
	}

	// End to end: the refusal is a definite failure, so the origin keeps
	// its agent and no migration stays in doubt.
	scout := inertAgent(t, a, "ioo@a")
	if _, err := a.DispatchAgent("ioo@a", "b"); err == nil {
		t.Fatal("an agent named ioo@a was installed over a's IOO Ambassador at b")
	}
	if got, err := a.ResolveObject("ioo@a"); err != nil || got != scout {
		t.Errorf("origin after the refusal: ioo@a = %v, %v; want the reinstated agent", got, err)
	}
	if ids := a.InDoubtMigrations(); len(ids) != 0 {
		t.Errorf("refused dispatch left migrations in doubt: %v", ids)
	}

	// The mirror: a Home member already holds the local name an Import
	// would bind.
	addEmployeeDB(t, b)
	member := inertAgent(t, a, "payroll@b")
	if _, err := a.Import("b", "payroll"); !errors.Is(err, core.ErrExists) {
		t.Errorf("Import over a Home member = %v, want core.ErrExists", err)
	}
	if got, err := a.ResolveObject("payroll@b"); err != nil || got != member {
		t.Errorf("payroll@b after the refused Import = %v, %v; want the Home member", got, err)
	}
	if ambs := a.Ambassadors(); len(ambs) != 0 {
		t.Errorf("refused Import left ambassadors %v", ambs)
	}
}
