package core

// The dispatch half of the reference model (ROADMAP item 5). The cold path
// is the specification: every step reads the object — containers, ACLs,
// chain, policy — afresh. So two identical objects driven by one random
// program, one of them flushed before every step, must agree on results,
// errors, self-description and audit trail; whatever the warm one serves
// from its table that the cold one would not have computed is a cache bug.
// Each twin has a policy of its own, so the cold twin's flush, which
// empties its policy's verdicts, never chills the warm twin; and each has a
// sibling whose items carry the twin's ACLs, so a verdict one object's edit
// retires while the other still asks for it is checked too. A mutant that
// edits an ACL in place, keeping its identity, fails here.

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/naming"
	"repro/internal/security"
	"repro/internal/value"
)

// twin is one of the two objects under comparison, with the policy,
// auditor and allow link that are its own, and a sibling on the same
// policy whose items carry the same ACLs (so the two share verdicts until
// one is edited).
type twin struct {
	obj  *Object
	sib  *Object
	pol  *security.Policy
	aud  *security.Auditor
	link *security.Auditor
}

// twinStep is one step of the random program, applicable to either twin.
type twinStep struct {
	desc string
	run  func(tw *twin) (value.Value, error)
}

const twinTxnSrc = `fn(fail) {
	self.setMethod("workExt", {"body": "fn(x) { return x + 1000; }"});
	self.workExt(1);
	self.n = self.n + 1;
	self.addDataItem("tmpd0", self.n);
	self.addMethod("tmp0", fn(x) { return x + 100; });
	self.setDataItem("n", {"aclDeny": "domain:elsewhere"});
	if fail { error("txn failed"); }
	return self.n;
}`

// newTwin builds one twin. rules are the 17 entries of the ACL of
// "guarded", built once per twin and carried by both of its objects.
func newTwin(rules []security.Entry) *twin {
	tw := &twin{pol: security.NewPolicy(), aud: security.NewAuditor(256), link: security.NewAuditor(256)}
	tw.pol.GradeDomain("elsewhere", security.Trusted)
	guard := security.NewACL(rules...)
	echo := NewNativeBody("twin.echo", func(_ *Invocation, args []value.Value) (value.Value, error) {
		return argAt(args, 0), nil
	})
	sb := NewBuilder(gen, "Sibling", WithPolicy(tw.pol))
	sb.ExtData("n", value.NewInt(0))
	sb.FixedMethod("work", echo)
	sb.ExtMethod("workExt", echo)
	sb.FixedMethod("guarded", echo, WithACL(guard))
	tw.sib = sb.MustBuild()
	b := NewBuilder(gen, "Twin", WithPolicy(tw.pol), WithAuditor(tw.aud))
	b.FixedData("idx", value.NewInt(7))
	b.ExtData("n", value.NewInt(0))
	b.ExtData("hid", value.NewString("secret"), Hidden())
	b.FixedMethod("work", echo)
	b.ExtMethod("workExt", echo)
	b.FixedMethod("guarded", echo, WithACL(guard))
	b.ExtMethod("secret", echo, Hidden())
	b.FixedScriptMethod("bump", `fn(d) { self.n = self.n + d; return self.n; }`)
	b.FixedScriptMethod("txn", twinTxnSrc)
	tw.obj = b.MustBuild()
	tw.obj.ArmAudit(tw.link)
	return tw
}

// twinProgram generates the seeded program: the full mutation alphabet,
// shaped so that the warm twin is in fact warm when an edit lands.
type twinProgram struct {
	rng     *rand.Rand
	callers []security.Principal // index 0 stands for the twin itself
	// The last caller, method and data item drawn: half the draws repeat
	// them, so calls cluster on a few (caller, item) pairs.
	caller       int
	method, data string
	// Steps already decided: a mutation is usually bracketed by the same
	// probing call before and after it, which is the shape of the promise
	// under test — the very next call observes the edit.
	queue []twinStep
}

var (
	// "invoke@1" is also the internal name of the level-1 method.
	twinMethods = []string{"work", "workExt", "guarded", "bump", "secret", "tmp0", "tmp1", "invoke@1", "nosuch"}
	twinData    = []string{"idx", "n", "hid", "tmpd0", "tmpd1", "nosuch"}
	twinBodies  = []string{`fn(x) { return x; }`, `fn(x) { return x + 1; }`, `fn(x) { self.n = self.n + x; return self.n; }`}
	twinLevels  = []string{
		`fn(name, args) { return self.invokeNext(name, args); }`,
		`fn(name, args) { if name == "workExt" { return 99; } return self.invokeNext(name, args); }`,
	}
	twinSubjects = []string{"domain:elsewhere", "domain:nowhere", "domain:friends", "*"}
)

func pick[T any](rng *rand.Rand, from []T) T { return from[rng.Intn(len(from))] }

// sticky redraws *last from the pool half the time and returns it.
func sticky[T any](rng *rand.Rand, last *T, from []T) T {
	if rng.Intn(2) == 0 {
		*last = pick(rng, from)
	}
	return *last
}

// who resolves a caller index against one twin.
func (p *twinProgram) who(tw *twin, i int) security.Principal {
	if i == 0 {
		return tw.obj.Principal()
	}
	return p.callers[i]
}

// call is the step "caller c invokes name(args)".
func (p *twinProgram) call(c int, name string, args ...value.Value) twinStep {
	return twinStep{fmt.Sprintf("caller %d: %s%v", c, name, args), func(tw *twin) (value.Value, error) {
		return tw.obj.Invoke(p.who(tw, c), name, args...)
	}}
}

// sibling is the step "caller c invokes name(args) on the sibling", which
// asks the questions the twin's items asked before the twin's edits.
func (p *twinProgram) sibling(c int, name string, args ...value.Value) twinStep {
	return twinStep{fmt.Sprintf("caller %d: sibling %s%v", c, name, args), func(tw *twin) (value.Value, error) {
		return tw.sib.Invoke(p.who(tw, c), name, args...)
	}}
}

// viaHandle is the step "caller c edits the item through the handle its
// get meta-method returns".
func (p *twinProgram) viaHandle(c int, getter, setter, name string, props value.Value) twinStep {
	return twinStep{fmt.Sprintf("caller %d: %s(handle of %s, %v)", c, setter, name, props), func(tw *twin) (value.Value, error) {
		desc, err := tw.obj.Invoke(p.who(tw, c), getter, value.NewString(name))
		if err != nil {
			return value.Null, err
		}
		m, _ := desc.Map()
		return tw.obj.Invoke(p.who(tw, c), setter, m["handle"], props)
	}}
}

// props draws one property edit: value-free, so it applies to data items,
// methods and levels alike (a body is ignored by a data item; a rename
// draws its target from names, the pool the item came from).
func (p *twinProgram) props(names []string) value.Value {
	var k string
	var v value.Value
	switch p.rng.Intn(6) {
	case 0:
		k, v = "visible", value.NewBool(p.rng.Intn(2) == 0)
	case 1:
		k, v = "aclDeny", value.NewString(pick(p.rng, twinSubjects))
	case 2:
		k, v = "aclAllow", value.NewString(pick(p.rng, twinSubjects))
	case 3:
		k, v = "aclClear", value.True
	case 4:
		k, v = "rename", value.NewString(pick(p.rng, names))
	default:
		k, v = "body", value.NewString(pick(p.rng, twinBodies))
	}
	return value.NewMap(map[string]value.Value{k: v})
}

// edit is the step "change item name with the named set meta-method", by
// name or through a handle, mostly as the object itself and sometimes as
// another principal, so Match on the meta-methods is exercised too.
func (p *twinProgram) edit(getter, setter, name string, props value.Value) twinStep {
	c := 0
	if p.rng.Intn(4) == 0 {
		c = p.rng.Intn(len(p.callers))
	}
	if getter != "" && p.rng.Intn(2) == 0 {
		return p.viaHandle(c, getter, setter, name, props)
	}
	if props.IsNull() {
		return p.call(c, setter, value.NewString(name))
	}
	return p.call(c, setter, value.NewString(name), props)
}

// mutation draws one change to the object, its policy, its auditor or its
// allow link, and the call most likely to notice it.
func (p *twinProgram) mutation() (change, probe twinStep) {
	rng := p.rng
	c := rng.Intn(len(p.callers))
	arg := value.NewInt(int64(rng.Intn(5)))
	callMethod := p.call(c, p.method, arg)
	getData := p.call(c, "get", value.NewString(p.data))
	probe = callMethod // of the changes that any call could notice
	if rng.Intn(2) == 0 {
		probe = getData
	}
	switch op := rng.Intn(43); {
	case op < 3:
		return p.edit("", "addDataItem", p.data, arg), getData
	case op < 11:
		return p.edit("getDataItem", "setDataItem", p.data, p.props(twinData)), getData
	case op < 13:
		return p.edit("", "deleteDataItem", p.data, value.Null), getData
	case op < 16:
		return p.edit("", "addMethod", p.method, value.NewString(pick(rng, twinBodies))), callMethod
	case op < 24:
		return p.edit("getMethod", "setMethod", p.method, p.props(twinMethods)), callMethod
	case op < 26:
		return p.edit("", "deleteMethod", p.method, value.Null), callMethod
	case op < 29: // push an invoke level, sometimes behind an ACL
		props := map[string]value.Value{"body": value.NewString(pick(rng, twinLevels))}
		if rng.Intn(3) == 0 {
			props["aclDeny"] = value.NewString(pick(rng, twinSubjects))
		}
		return p.edit("", "setMethod", "invoke", value.NewMap(props)), callMethod
	case op < 31:
		return p.edit("", "deleteMethod", "invoke", value.Null), callMethod
	case op < 34: // edit the top level in place, through its handle
		props := p.props(twinMethods)
		if rng.Intn(2) == 0 {
			props = value.NewMap(map[string]value.Value{"body": value.NewString(pick(rng, twinLevels))})
		}
		return p.viaHandle(0, "getMethod", "setMethod", "invoke", props), p.call(c, "workExt", arg)
	case op < 36:
		fail := value.NewBool(rng.Intn(3) != 0)
		by := rng.Intn(len(p.callers))
		return twinStep{fmt.Sprintf("caller %d: atomic txn(%v)", by, fail), func(tw *twin) (value.Value, error) {
			return tw.obj.InvokeAtomic(p.who(tw, by), "txn", fail)
		}}, p.call(c, "workExt", arg)
	case op < 41:
		level := pick(rng, []security.TrustLevel{security.Untrusted, security.Limited, security.Trusted})
		if rng.Intn(4) == 0 {
			effect := pick(rng, []security.Effect{security.Allow, security.Deny})
			return twinStep{fmt.Sprintf("policy: default of %v = %v", level, effect), func(tw *twin) (value.Value, error) {
				tw.pol.SetDefault(level, effect)
				return value.Null, nil
			}}, probe
		}
		dom := pick(rng, []string{"elsewhere", "nowhere", "friends"})
		return twinStep{fmt.Sprintf("policy: grade %s %v", dom, level), func(tw *twin) (value.Value, error) {
			tw.pol.GradeDomain(dom, level)
			return value.Null, nil
		}}, probe
	case op < 42:
		attach := rng.Intn(3) != 0
		return twinStep{fmt.Sprintf("auditor attached: %v", attach), func(tw *twin) (value.Value, error) {
			if attach {
				tw.obj.SetAuditor(tw.aud)
			} else {
				tw.obj.SetAuditor(nil)
			}
			return value.Null, nil
		}}, probe
	default:
		arm := rng.Intn(3) != 0
		return twinStep{fmt.Sprintf("allow link armed: %v", arm), func(tw *twin) (value.Value, error) {
			if arm {
				tw.obj.ArmAudit(tw.link)
			} else {
				tw.obj.ArmAudit(nil)
			}
			return value.Null, nil
		}}, probe
	}
}

func (p *twinProgram) next() twinStep {
	if len(p.queue) > 0 {
		step := p.queue[0]
		p.queue = p.queue[1:]
		return step
	}
	rng := p.rng
	if rng.Intn(2) == 0 {
		p.caller = rng.Intn(len(p.callers))
	}
	c := p.caller
	meth := sticky(rng, &p.method, twinMethods)
	data := sticky(rng, &p.data, twinData)
	arg := value.NewInt(int64(rng.Intn(5)))
	switch op := rng.Intn(100); {
	case op < 30:
		return p.call(c, meth, arg)
	case op < 44:
		return p.call(c, "get", value.NewString(data))
	case op < 52:
		return p.call(c, "set", value.NewString(data), arg)
	case op < 58:
		return p.call(c, "invoke", value.NewString(meth), value.NewListOf(arg))
	case op < 61:
		return p.sibling(c, pick(rng, []string{"work", "workExt", "guarded"}), arg)
	case op < 63:
		return p.sibling(c, "get", value.NewString("n"))
	}
	change, probe := p.mutation()
	if rng.Intn(2) == 0 {
		return change
	}
	p.queue = append(p.queue, change, probe)
	return probe
}

var twinErrClasses = []error{ErrNotFound, ErrFixed, ErrExists, ErrArity, ErrBadHandle,
	ErrPreconditionFailed, ErrPostconditionFailed, ErrReentry, security.ErrDenied}

// observe renders what one step lets an outsider see of a twin — the
// result or error, and the self-description as the twin and as a peer see
// it — with the twin's own identity masked.
func (tw *twin) observe(v value.Value, err error, peer security.Principal) string {
	var sb strings.Builder
	if err != nil {
		fmt.Fprintf(&sb, "error %q classes", err)
		for i, class := range twinErrClasses {
			if errors.Is(err, class) {
				fmt.Fprintf(&sb, " %d", i)
			}
		}
	} else {
		fmt.Fprintf(&sb, "result %v", v)
	}
	fmt.Fprintf(&sb, "\nself sees %v\npeer sees %v", tw.obj.Describe(tw.obj.Principal()), tw.obj.Describe(peer))
	return strings.ReplaceAll(sb.String(), tw.obj.ID().String(), "<self>")
}

// sameTrail compares two audit trails on everything but the clock. Every
// event must name its own twin as the target; self access is never
// recorded, so no event names a twin as the principal.
func sameTrail(a, b []security.Event, aID, bID naming.ID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Object != aID || b[i].Object != bID ||
			a[i].Principal != b[i].Principal || a[i].Action != b[i].Action ||
			a[i].Item != b[i].Item || a[i].Allowed != b[i].Allowed {
			return false
		}
	}
	return true
}

// trailString renders a trail with the twin's own id masked as <self>, so
// an event recorded against any other target stands out.
func trailString(events []security.Event, self naming.ID) string {
	var sb strings.Builder
	for _, e := range events {
		target := e.Object.String()
		if e.Object == self {
			target = "<self>"
		}
		fmt.Fprintf(&sb, "\n  %s: %v %v %q %v", target, e.Principal, e.Action, e.Item, e.Allowed)
	}
	return sb.String()
}

func TestWarmEqualsCold(t *testing.T) {
	const seeds, steps = 200, 200
	entries := make([]security.Entry, 0, 17)
	for k := 0; k < 16; k++ {
		entries = append(entries, security.DenyObject(gen.New())) // never matches a caller
	}
	entries = append(entries, security.AllowDomain("friends"))
	callers := []security.Principal{{},
		{Object: gen.New(), Domain: "friends"},
		{Object: gen.New(), Domain: "elsewhere"},
		{Object: gen.New(), Domain: "elsewhere"},
		{Object: gen.New(), Domain: "nowhere"}, // the denied stranger
	}
	// The same object claiming another domain is another principal.
	callers = append(callers, security.Principal{Object: callers[2].Object, Domain: "nowhere"})
	for seed := int64(1); seed <= seeds; seed++ {
		prog := &twinProgram{rng: rand.New(rand.NewSource(seed)), callers: callers}
		warm, cold := newTwin(entries), newTwin(entries)
		var trace []string
		for i := 0; i < steps; i++ {
			step := prog.next()
			trace = append(trace, step.desc)
			wv, werr := step.run(warm)
			cold.obj.FlushDispatchCache()
			cv, cerr := step.run(cold)
			w, c := warm.observe(wv, werr, callers[2]), cold.observe(cv, cerr, callers[2])
			wt, ct := warm.aud.Events(), cold.aud.Events()
			wl, cl := warm.link.Events(), cold.link.Events()
			if w != c || !sameTrail(wt, ct, warm.obj.ID(), cold.obj.ID()) || !sameTrail(wl, cl, warm.obj.ID(), cold.obj.ID()) {
				t.Fatalf("seed %d diverges at step %d; shortest failing prefix:\n  %s\nwarm: %s\naudit%s\nlink%s\ncold: %s\naudit%s\nlink%s",
					seed, i, strings.Join(trace, "\n  "), w, trailString(wt, warm.obj.ID()), trailString(wl, warm.obj.ID()),
					c, trailString(ct, cold.obj.ID()), trailString(cl, cold.obj.ID()))
			}
		}
	}
}
