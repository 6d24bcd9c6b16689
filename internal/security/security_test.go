package security

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/naming"
)

var gen = naming.NewGenerator("sec-test")

func principal(domain string) Principal {
	return Principal{Object: gen.New(), Domain: domain}
}

func TestEntryMatches(t *testing.T) {
	alice := principal("technion.ee")
	tests := []struct {
		name   string
		entry  Entry
		p      Principal
		action Action
		want   bool
	}{
		{"wildcard matches anything", Entry{Effect: Allow}, alice, ActionInvoke, true},
		{"object match", Entry{Effect: Allow, Object: alice.Object}, alice, ActionGet, true},
		{"object mismatch", Entry{Effect: Allow, Object: gen.New()}, alice, ActionGet, false},
		{"domain exact", Entry{Effect: Allow, Domain: "technion.ee"}, alice, ActionSet, true},
		{"domain mismatch", Entry{Effect: Allow, Domain: "mit.edu"}, alice, ActionSet, false},
		{"domain glob", Entry{Effect: Allow, Domain: "technion.*"}, alice, ActionSet, true},
		{"domain glob matches parent", Entry{Effect: Allow, Domain: "technion.*"}, principal("technion"), ActionSet, true},
		{"domain glob mismatch", Entry{Effect: Allow, Domain: "mit.*"}, alice, ActionSet, false},
		{"star matches all", Entry{Effect: Allow, Domain: "*"}, alice, ActionSet, true},
		{"action match", Entry{Effect: Allow, Action: ActionInvoke}, alice, ActionInvoke, true},
		{"action mismatch", Entry{Effect: Allow, Action: ActionInvoke}, alice, ActionMeta, false},
		{"combined all match", Entry{Effect: Deny, Object: alice.Object, Domain: "technion.*", Action: ActionMeta}, alice, ActionMeta, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.entry.Matches(tt.p, tt.action); got != tt.want {
				t.Errorf("Matches = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestACLFirstMatchWins(t *testing.T) {
	alice := principal("a")
	acl := NewACL(
		DenyObject(alice.Object),
		AllowAll(),
	)
	if effect, ok := acl.Decide(alice, ActionInvoke); !ok || effect != Deny {
		t.Errorf("Decide(alice) = %v, %v; want Deny, true", effect, ok)
	}
	bob := principal("a")
	if effect, ok := acl.Decide(bob, ActionInvoke); !ok || effect != Allow {
		t.Errorf("Decide(bob) = %v, %v; want Allow, true", effect, ok)
	}
}

func TestACLNoMatchDelegates(t *testing.T) {
	acl := NewACL(Entry{Effect: Allow, Domain: "x"})
	if _, ok := acl.Decide(principal("y"), ActionInvoke); ok {
		t.Error("unmatched principal decided by ACL")
	}
	if !NewACL().Empty() {
		t.Error("empty ACL not Empty")
	}
}

func TestACLImmutability(t *testing.T) {
	base := NewACL(AllowAll())
	prepended := base.Prepend(DenyAll())
	if base.Len() != 1 || prepended.Len() != 2 {
		t.Fatalf("lens: %d %d", base.Len(), prepended.Len())
	}
	p := principal("d")
	if e, _ := base.Decide(p, ActionGet); e != Allow {
		t.Error("Prepend changed the ACL it was called on")
	}
	if e, _ := prepended.Decide(p, ActionGet); e != Deny {
		t.Error("Prepend not highest priority")
	}
	// Entries returns a copy.
	ents := base.Entries()
	ents[0] = DenyAll()
	if e, _ := base.Decide(p, ActionGet); e != Deny {
		// base must still allow
	} else if e == Deny {
		t.Error("Entries exposed internal storage")
	}
}

func TestPolicyDefaults(t *testing.T) {
	pol := NewPolicy()
	pol.GradeDomain("campus", Trusted)
	pol.GradeDomain("partner", Limited)

	if lvl := pol.Level("campus"); lvl != Trusted {
		t.Errorf("Level(campus) = %v", lvl)
	}
	if lvl := pol.Level("unknown"); lvl != Untrusted {
		t.Errorf("Level(unknown) = %v", lvl)
	}
	if e := pol.DecideDefault(principal("campus")); e != Allow {
		t.Errorf("trusted default = %v", e)
	}
	if e := pol.DecideDefault(principal("partner")); e != Deny {
		t.Errorf("limited default = %v", e)
	}
	if e := pol.DecideDefault(principal("unknown")); e != Deny {
		t.Errorf("untrusted default = %v", e)
	}

	pol.SetDefault(Limited, Allow)
	if e := pol.DecideDefault(principal("partner")); e != Allow {
		t.Errorf("limited default after SetDefault = %v", e)
	}
}

func TestCheck(t *testing.T) {
	pol := NewPolicy()
	pol.GradeDomain("home", Local)
	stranger := principal("nowhere")
	friend := principal("home")

	// Empty ACL: policy decides.
	if err := Check(ACL{}, pol, friend, ActionInvoke, "m"); err != nil {
		t.Errorf("local principal denied by policy: %v", err)
	}
	if err := Check(ACL{}, pol, stranger, ActionInvoke, "m"); !errors.Is(err, ErrDenied) {
		t.Errorf("stranger allowed by policy: %v", err)
	}

	// ACL overrides policy in both directions.
	allowStranger := NewACL(AllowObject(stranger.Object))
	if err := Check(allowStranger, pol, stranger, ActionInvoke, "m"); err != nil {
		t.Errorf("ACL allow not honored: %v", err)
	}
	denyFriend := NewACL(DenyObject(friend.Object), AllowAll())
	if err := Check(denyFriend, pol, friend, ActionInvoke, "m"); !errors.Is(err, ErrDenied) {
		t.Errorf("ACL deny not honored: %v", err)
	}

	// Nil policy with empty ACL denies.
	if err := Check(ACL{}, nil, friend, ActionInvoke, "m"); !errors.Is(err, ErrDenied) {
		t.Errorf("nil policy allowed: %v", err)
	}
}

// Property: adding an AllowObject(p) entry at the front never turns a
// previously-allowed principal p into denied (prepending a grant is
// monotone for its subject).
func TestPropPrependGrantMonotone(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		p := Principal{Object: gen.New(), Domain: "d"}
		entries := make([]Entry, 0, n%8)
		for i := 0; i < int(n%8); i++ {
			e := Entry{Effect: Effect(r.Intn(2))}
			if r.Intn(2) == 0 {
				e.Object = gen.New()
			}
			if r.Intn(2) == 0 {
				e.Action = Action(r.Intn(5))
			}
			entries = append(entries, e)
		}
		acl := NewACL(entries...)
		granted := acl.Prepend(AllowObject(p.Object))
		effect, ok := granted.Decide(p, ActionInvoke)
		return ok && effect == Allow
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// inShard returns a fresh id whose events land in the given shard.
func inShard(shard byte) naming.ID {
	id := gen.New()
	id[15] = shard
	return id
}

func TestAuditorRing(t *testing.T) {
	a := NewAuditor(4)
	p := principal("d")
	obj := gen.New()
	for i := 0; i < 6; i++ {
		a.Record(obj, p, ActionInvoke, "m", i%2 == 0)
	}
	events := a.Events()
	if len(events) != 4 {
		t.Fatalf("retained %d events, want 4", len(events))
	}
	// Oldest-first: events 2..5; denials are the odd ones (3, 5).
	if len(a.Denials()) != 2 {
		t.Errorf("Denials = %d, want 2", len(a.Denials()))
	}

	small := NewAuditor(0) // capacity defaults
	small.Record(obj, p, ActionGet, "x", true)
	if got := small.Events(); len(got) != 1 || got[0].Object != obj || got[0].Principal != p {
		t.Errorf("default-capacity auditor holds %+v, want the one event", got)
	}

	// Three targets in different shards, written in an uneven pattern: one
	// shard overflows on its own, and the newest four span all three.
	a = NewAuditor(4)
	targets := []naming.ID{inShard(1), inShard(2), inShard(3)}
	var want []Event
	for i, k := range []int{0, 0, 0, 0, 0, 0, 1, 2, 0, 1, 2, 1, 0} {
		e := Event{Object: targets[k], Principal: p, Action: ActionGet, Item: fmt.Sprint(i), Allowed: k != 2}
		a.Record(e.Object, e.Principal, e.Action, e.Item, e.Allowed)
		want = append(want, e)
	}
	got := a.Events()
	want = want[len(want)-4:]
	if len(got) != len(want) {
		t.Fatalf("retained %d events across shards, want %d", len(got), len(want))
	}
	for i := range got {
		if at := got[i].At; i > 0 && at.Before(got[i-1].At) {
			t.Errorf("event %d at %v precedes event %d at %v", i, at, i-1, got[i-1].At)
		}
		got[i].At = time.Time{}
		if got[i] != want[i] {
			t.Errorf("event %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestAuditorConcurrent records from four writers on targets of their own
// and two sharing one target, reading the trail all the while. Every read
// holds at most capacity events, oldest first, each writer's in the order
// it wrote them; once the writers are done, the newest capacity remain.
func TestAuditorConcurrent(t *testing.T) {
	const capacity, writers, perWriter = 64, 6, 500
	a := NewAuditor(capacity)
	shared := inShard(9)
	targets := make([]naming.ID, writers)
	for w := range targets {
		targets[w] = inShard(byte(w))
		if w >= 4 {
			targets[w] = shared
		}
	}
	// stampedBefore[w][i] is the auditor's clock just before writer w
	// recorded its event i: no later than that event's own stamp.
	var stampedBefore [writers][perWriter]time.Duration
	// check returns what is wrong with a read, or "".
	check := func(events []Event) string {
		if len(events) > capacity {
			return fmt.Sprintf("%d events, capacity %d", len(events), capacity)
		}
		var next [writers]int // the least sequence number each writer may show next
		for i, e := range events {
			if i > 0 && e.At.Before(events[i-1].At) {
				return fmt.Sprintf("event %d out of order", i)
			}
			var w, seq int
			if _, err := fmt.Sscanf(e.Item, "%d/%d", &w, &seq); err != nil ||
				w < 0 || w >= writers || e.Object != targets[w] {
				return fmt.Sprintf("event %d is %+v", i, e)
			}
			if seq < next[w] {
				return fmt.Sprintf("writer %d: event %d after %d", w, seq, next[w]-1)
			}
			next[w] = seq + 1
		}
		return ""
	}

	var wg sync.WaitGroup
	done := make(chan struct{})
	readerErr := make(chan string, 1)
	go func() {
		defer close(readerErr)
		for {
			select {
			case <-done:
				return
			default:
			}
			if msg := check(a.Events()); msg != "" {
				readerErr <- msg
				return
			}
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := principal(fmt.Sprint("writer", w))
			for i := 0; i < perWriter; i++ {
				item := fmt.Sprintf("%d/%d", w, i)
				stampedBefore[w][i] = time.Since(a.epoch)
				a.Record(targets[w], p, ActionInvoke, item, true)
			}
		}(w)
	}
	wg.Wait()
	close(done)
	if msg := <-readerErr; msg != "" {
		t.Fatalf("concurrent read: %s", msg)
	}

	events := a.Events()
	if msg := check(events); msg != "" {
		t.Fatal(msg)
	}
	if len(events) != capacity {
		t.Fatalf("retained %d events, want %d", len(events), capacity)
	}
	// Retained events are each writer's newest; every dropped one was
	// recorded no later than the oldest retained, so none started after it.
	kept := make(map[string]bool, capacity)
	for _, e := range events {
		kept[e.Item] = true
	}
	oldest := events[0].At.Sub(a.epoch)
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			item := fmt.Sprintf("%d/%d", w, i)
			if kept[item] {
				if i+1 < perWriter && !kept[fmt.Sprintf("%d/%d", w, i+1)] {
					t.Errorf("writer %d: event %d kept, event %d dropped", w, i, i+1)
				}
			} else if stampedBefore[w][i] > oldest {
				t.Errorf("writer %d: event %d dropped, though newer than the oldest kept", w, i)
			}
		}
	}
}

func TestStringers(t *testing.T) {
	if ActionInvoke.String() != "invoke" || ActionMeta.String() != "meta" ||
		ActionGet.String() != "get" || ActionSet.String() != "set" || ActionAny.String() != "any" {
		t.Error("Action.String wrong")
	}
	if Action(99).String() == "" {
		t.Error("unknown action empty")
	}
	if Local.String() != "local" || Untrusted.String() != "untrusted" ||
		Trusted.String() != "trusted" || Limited.String() != "limited" {
		t.Error("TrustLevel.String wrong")
	}
	if TrustLevel(99).String() == "" {
		t.Error("unknown trust empty")
	}
	if Allow.String() != "allow" || Deny.String() != "deny" {
		t.Error("Effect.String wrong")
	}
	p := principal("dom")
	if p.String() == "" {
		t.Error("Principal.String empty")
	}
}
