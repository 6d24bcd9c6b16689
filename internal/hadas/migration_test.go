package hadas

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/persist"
	"repro/internal/transport"
	"repro/internal/value"
	"repro/internal/wire"
)

// migPolicy is a fast, patient resilience policy for migration tests:
// millisecond retries and a breaker that effectively never opens. Tests
// that need an open circuit configure their own threshold.
func migPolicy() transport.ResilientPolicy {
	return transport.ResilientPolicy{
		BaseBackoff:      time.Millisecond,
		FailureThreshold: 100,
		Cooldown:         50 * time.Millisecond,
	}
}

func newMigSiteCfg(t *testing.T, net *transport.InProcNet, cfg Config) *Site {
	t.Helper()
	cfg.Dial = func(addr string) (transport.Conn, error) { return net.Dial(addr) }
	s, err := NewSite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ServeInProc(net); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		homeAgreesWithRegistry(t, s)
		s.Close()
	})
	return s
}

// homeAgreesWithRegistry asserts the admission rule's invariant: every
// Home member resolves to the same object through the container and
// through the registry. Every site built by newMigSiteCfg is held to it
// when its test ends (crashed-and-restarted incarnations included).
func homeAgreesWithRegistry(t *testing.T, s *Site) {
	t.Helper()
	for _, name := range s.home.names() {
		viaHome, _ := s.home.get(name)
		if viaRegistry, err := s.objects.Lookup(name); err != nil || viaRegistry != any(viaHome) {
			t.Errorf("site %s: Home gives %q to %v, the registry to %v (%v)", s.Name(), name, viaHome, viaRegistry, err)
		}
	}
}

// walStore opens the durable backend the crash tests restart over: a
// write-ahead log in a fresh directory, closed when the test ends (after
// the sites built over it, which register their cleanups later).
func walStore(t *testing.T) *persist.WALStore {
	t.Helper()
	w, err := persist.NewWALStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return w
}

func newMigSite(t *testing.T, net *transport.InProcNet, name string, store persist.Backend) *Site {
	t.Helper()
	return newMigSiteCfg(t, net, Config{Name: name, Store: store, Resilience: migPolicy()})
}

// restartSite simulates a process crash and restart: the old site's
// listener and connections die with it, and a fresh Site is built over the
// same store and re-linked — the same startup sequence hadasd runs.
func restartSite(t *testing.T, net *transport.InProcNet, old *Site, peers ...string) *Site {
	t.Helper()
	store := old.cfg.Store
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}
	s := newMigSiteCfg(t, net, Config{
		Name:              old.cfg.Name,
		Store:             store,
		Resilience:        migPolicy(),
		MaxArrivalRecords: old.cfg.MaxArrivalRecords,
	})
	for _, p := range peers {
		if _, err := s.Link(p); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// bootstrap runs BootstrapHome tolerating a missing Home manifest (the site
// crashed before its first PersistAll), exactly as hadasd does.
func bootstrap(t *testing.T, s *Site) []string {
	t.Helper()
	restored, err := s.BootstrapHome()
	if err != nil && !errors.Is(err, persist.ErrNoSlot) {
		t.Fatal(err)
	}
	return restored
}

// counterAgent installs an agent whose onArrival counts its invocations —
// the probe for "a retried dispatch never runs onArrival twice".
func counterAgent(t *testing.T, s *Site, name string) *core.Object {
	t.Helper()
	b := s.NewAPOBuilder("Counter")
	b.ExtData("count", value.NewInt(0))
	b.FixedScriptMethod("onArrival", `fn(hop) {
		self.count = self.count + 1;
		return self.count;
	}`)
	agent := b.MustBuild()
	if err := s.AddAPO(name, agent); err != nil {
		t.Fatal(err)
	}
	return agent
}

// inertAgent installs an agent without an onArrival method.
func inertAgent(t *testing.T, s *Site, name string) *core.Object {
	t.Helper()
	b := s.NewAPOBuilder("Inert")
	b.ExtData("payload", value.NewString("cargo"))
	agent := b.MustBuild()
	if err := s.AddAPO(name, agent); err != nil {
		t.Fatal(err)
	}
	return agent
}

func agentCount(t *testing.T, s *Site, name string) int64 {
	t.Helper()
	obj, err := s.ResolveObject(name)
	if err != nil {
		t.Fatal(err)
	}
	v, err := obj.Get(obj.Principal(), "count")
	if err != nil {
		t.Fatal(err)
	}
	n, _ := v.Int()
	return n
}

// copies counts how many sites currently host an object under name — the
// exactly-once invariant asserts this is 1.
func copies(name string, sites ...*Site) int {
	n := 0
	for _, s := range sites {
		if _, err := s.ResolveObject(name); err == nil {
			n++
		}
	}
	return n
}

// journalSlots lists the journal's slots under a prefix, the prefix cut.
func journalSlots(t *testing.T, s *Site, prefix string) []string {
	t.Helper()
	slots, err := s.journal.List()
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, slot := range slots {
		if strings.HasPrefix(slot, prefix) {
			out = append(out, strings.TrimPrefix(slot, prefix))
		}
	}
	return out
}

// journalMigrations lists the migration IDs still in the origin journal.
func journalMigrations(t *testing.T, s *Site) []string {
	return journalSlots(t, s, migrationSlotPrefix)
}

// arrivalSlots lists the migration IDs of the journaled arrival records.
func arrivalSlots(t *testing.T, s *Site) []string {
	return journalSlots(t, s, arrivalSlotPrefix)
}

// injectFaults wraps the connection to peer in a FaultConn with the given
// per-verb rules, keeping the resilient wrapper (and breaker) in place.
func injectFaults(t *testing.T, s *Site, peer string, rules map[string]*transport.FaultRule) *transport.FaultConn {
	t.Helper()
	inner, err := s.cfg.Dial(peer)
	if err != nil {
		t.Fatal(err)
	}
	fc := &transport.FaultConn{Inner: inner, VerbRules: rules}
	if err := s.SetPeerConn(peer, fc); err != nil {
		t.Fatal(err)
	}
	return fc
}

// healFaults restores a clean connection to peer.
func healFaults(t *testing.T, s *Site, peer string) {
	t.Helper()
	inner, err := s.cfg.Dial(peer)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetPeerConn(peer, inner); err != nil {
		t.Fatal(err)
	}
}

func link(t *testing.T, a *Site, peer string) {
	t.Helper()
	if _, err := a.Link(peer); err != nil {
		t.Fatal(err)
	}
}

// TestDispatchJournalLifecycle is the happy path: a clean hand-off leaves
// no migration record at the origin and a settled arrival record at the
// destination.
func TestDispatchJournalLifecycle(t *testing.T) {
	net := transport.NewInProcNet()
	a := newMigSite(t, net, "a", persist.NewMemStore())
	b := newMigSite(t, net, "b", persist.NewMemStore())
	link(t, a, "b")

	counterAgent(t, a, "scout")
	result, err := a.DispatchAgent("scout", "b")
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := result.Int(); n != 1 {
		t.Errorf("onArrival result = %v", result)
	}
	if got := copies("scout", a, b); got != 1 {
		t.Fatalf("agent copies = %d", got)
	}
	if _, err := b.ResolveObject("scout"); err != nil {
		t.Errorf("agent not at destination: %v", err)
	}
	if slots := journalMigrations(t, a); len(slots) != 0 {
		t.Errorf("origin journal not pruned: %v", slots)
	}
	if ids := a.InDoubtMigrations(); len(ids) != 0 {
		t.Errorf("in-doubt after clean dispatch: %v", ids)
	}
	if recs := b.ArrivalRecords(); len(recs) != 1 {
		t.Errorf("arrival records = %v", recs)
	}
}

// TestDispatchRetryDeliversOnce drops the first dispatch response only
// (the request executes remotely); the transport retry must hit the dedup
// table, not a second installation.
func TestDispatchRetryDeliversOnce(t *testing.T) {
	net := transport.NewInProcNet()
	a := newMigSite(t, net, "a", persist.NewMemStore())
	b := newMigSite(t, net, "b", persist.NewMemStore())
	link(t, a, "b")

	counterAgent(t, a, "scout")
	rule := &transport.FaultRule{FailFirst: 1, FailAfter: true}
	injectFaults(t, a, "b", map[string]*transport.FaultRule{verbDispatch: rule})

	result, err := a.DispatchAgent("scout", "b")
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := result.Int(); n != 1 {
		t.Errorf("result after retry = %v", result)
	}
	if rule.Calls() < 2 {
		t.Fatalf("dispatch was not retried (calls=%d)", rule.Calls())
	}
	if got := agentCount(t, b, "scout"); got != 1 {
		t.Errorf("onArrival ran %d times", got)
	}
	if got := copies("scout", a, b); got != 1 {
		t.Errorf("agent copies = %d", got)
	}
	if slots := journalMigrations(t, a); len(slots) != 0 {
		t.Errorf("origin journal not pruned: %v", slots)
	}
	if recs := b.ArrivalRecords(); len(recs) != 1 {
		t.Errorf("arrival records = %v", recs)
	}
}

// TestDispatchInDoubtLanded: every dispatch response is lost (but requests
// execute) and the status query is also cut — the origin must go in doubt
// WITHOUT reinstating, because the agent is alive at the destination.
// Healing the link and resolving commits the migration.
func TestDispatchInDoubtLanded(t *testing.T) {
	net := transport.NewInProcNet()
	a := newMigSite(t, net, "a", persist.NewMemStore())
	b := newMigSite(t, net, "b", persist.NewMemStore())
	link(t, a, "b")

	counterAgent(t, a, "scout")
	injectFaults(t, a, "b", map[string]*transport.FaultRule{
		verbDispatch:        {Fail: true, FailAfter: true},
		verbMigrationStatus: {Fail: true},
	})

	_, err := a.DispatchAgent("scout", "b")
	if !errors.Is(err, ErrMigrationInDoubt) {
		t.Fatalf("dispatch error = %v, want ErrMigrationInDoubt", err)
	}
	// The agent landed; the origin must NOT hold a second copy.
	if _, err := a.ResolveObject("scout"); err == nil {
		t.Fatal("origin reinstated an agent that landed remotely")
	}
	if got := agentCount(t, b, "scout"); got != 1 {
		t.Errorf("onArrival ran %d times", got)
	}
	if ids := a.InDoubtMigrations(); len(ids) != 1 {
		t.Fatalf("in-doubt migrations = %v", ids)
	}

	healFaults(t, a, "b")
	reinstated, err := a.ResolveMigrations()
	if err != nil {
		t.Fatal(err)
	}
	if len(reinstated) != 0 {
		t.Errorf("resolve reinstated %v for a landed migration", reinstated)
	}
	if ids := a.InDoubtMigrations(); len(ids) != 0 {
		t.Errorf("still in doubt after resolve: %v", ids)
	}
	if slots := journalMigrations(t, a); len(slots) != 0 {
		t.Errorf("journal not pruned: %v", slots)
	}
	if got := copies("scout", a, b); got != 1 {
		t.Errorf("agent copies = %d", got)
	}
	if got := agentCount(t, b, "scout"); got != 1 {
		t.Errorf("onArrival re-ran during resolve: count = %d", got)
	}
}

// TestDispatchInDoubtNotLanded: the dispatch is cut before delivery and the
// status query fails too. The origin must not blindly reinstate while in
// doubt; once the link heals, resolution reinstates the journaled image.
func TestDispatchInDoubtNotLanded(t *testing.T) {
	net := transport.NewInProcNet()
	a := newMigSite(t, net, "a", persist.NewMemStore())
	b := newMigSite(t, net, "b", persist.NewMemStore())
	link(t, a, "b")

	counterAgent(t, a, "scout")
	injectFaults(t, a, "b", map[string]*transport.FaultRule{
		verbDispatch:        {Fail: true},
		verbMigrationStatus: {Fail: true},
	})

	_, err := a.DispatchAgent("scout", "b")
	if !errors.Is(err, ErrMigrationInDoubt) {
		t.Fatalf("dispatch error = %v, want ErrMigrationInDoubt", err)
	}
	// While in doubt the agent exists nowhere live — but its image is
	// journaled, so it is not lost.
	if got := copies("scout", a, b); got != 0 {
		t.Fatalf("agent copies while in doubt = %d", got)
	}
	if ids := a.InDoubtMigrations(); len(ids) != 1 {
		t.Fatalf("in-doubt migrations = %v", ids)
	}

	healFaults(t, a, "b")
	reinstated, err := a.ResolveMigrations()
	if err != nil {
		t.Fatal(err)
	}
	if len(reinstated) != 1 || reinstated[0] != "scout" {
		t.Fatalf("reinstated = %v", reinstated)
	}
	if _, err := a.ResolveObject("scout"); err != nil {
		t.Errorf("agent not reinstated at origin: %v", err)
	}
	if got := copies("scout", a, b); got != 1 {
		t.Errorf("agent copies = %d", got)
	}
	if slots := journalMigrations(t, a); len(slots) != 0 {
		t.Errorf("journal not pruned: %v", slots)
	}
}

// TestCrashMatrix kills and restarts a site at every step of the protocol
// and asserts the federation converges to exactly one live copy.
func TestCrashMatrix(t *testing.T) {
	t.Run("origin-crash-prepared", func(t *testing.T) {
		// Crash between the PREPARE write and the dispatch call: the record
		// is journaled, the agent retired, nothing was sent.
		net := transport.NewInProcNet()
		store := walStore(t)
		a := newMigSite(t, net, "a", store)
		b := newMigSite(t, net, "b", persist.NewMemStore())
		link(t, a, "b")

		agent := counterAgent(t, a, "scout")
		img, err := agent.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		rec := &migrationRecord{
			MID:    a.gen.New().String(),
			Name:   "scout",
			Dest:   "b",
			State:  migrationPrepared,
			WasAPO: true,
			Image:  wire.EncodeImage(img),
		}
		if err := a.putMigration(rec); err != nil {
			t.Fatal(err)
		}
		a.retireAgent("scout", agent.ID())

		a2 := restartSite(t, net, a, "b")
		restored := bootstrap(t, a2)
		if len(restored) != 1 || restored[0] != "scout" {
			t.Fatalf("restored = %v", restored)
		}
		if got := copies("scout", a2, b); got != 1 {
			t.Fatalf("agent copies = %d", got)
		}
		if _, err := a2.ResolveObject("scout"); err != nil {
			t.Errorf("agent not reinstated at origin: %v", err)
		}
		if ids := a2.InDoubtMigrations(); len(ids) != 0 {
			t.Errorf("still in doubt: %v", ids)
		}
	})

	t.Run("origin-crash-before-commit", func(t *testing.T) {
		// The dispatch succeeded but the origin crashed before finalizing
		// its journal record (simulated by re-journaling the prepared
		// record after the fact). Recovery must commit, not resurrect.
		net := transport.NewInProcNet()
		store := walStore(t)
		a := newMigSite(t, net, "a", store)
		b := newMigSite(t, net, "b", persist.NewMemStore())
		link(t, a, "b")

		agent := counterAgent(t, a, "scout")
		img, err := agent.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.DispatchAgent("scout", "b"); err != nil {
			t.Fatal(err)
		}
		// Re-create the journal state a crash before COMMIT leaves behind.
		// The migration ID must be one the destination recorded; fetch it
		// from the destination's dedup table.
		mids := b.ArrivalRecords()
		if len(mids) != 1 {
			t.Fatalf("arrival records = %v", mids)
		}
		rec := &migrationRecord{
			MID:    mids[0],
			Name:   "scout",
			Dest:   "b",
			State:  migrationPrepared,
			WasAPO: true,
			Image:  wire.EncodeImage(img),
		}
		if err := a.putMigration(rec); err != nil {
			t.Fatal(err)
		}

		a2 := restartSite(t, net, a, "b")
		bootstrap(t, a2)
		if _, err := a2.ResolveObject("scout"); err == nil {
			t.Fatal("recovery resurrected a committed agent at the origin")
		}
		if got := copies("scout", a2, b); got != 1 {
			t.Fatalf("agent copies = %d", got)
		}
		if got := agentCount(t, b, "scout"); got != 1 {
			t.Errorf("onArrival ran %d times", got)
		}
		if slots := journalMigrations(t, a2); len(slots) != 0 {
			t.Errorf("journal not pruned: %v", slots)
		}
	})

	t.Run("origin-crash-indoubt", func(t *testing.T) {
		// The migration went in doubt (agent landed, all replies lost) and
		// the origin crashed. Restart must resolve against the destination
		// and commit — exactly one copy, no re-run of onArrival.
		net := transport.NewInProcNet()
		store := walStore(t)
		a := newMigSite(t, net, "a", store)
		b := newMigSite(t, net, "b", persist.NewMemStore())
		link(t, a, "b")

		counterAgent(t, a, "scout")
		injectFaults(t, a, "b", map[string]*transport.FaultRule{
			verbDispatch:        {Fail: true, FailAfter: true},
			verbMigrationStatus: {Fail: true},
		})
		if _, err := a.DispatchAgent("scout", "b"); !errors.Is(err, ErrMigrationInDoubt) {
			t.Fatalf("dispatch error = %v, want ErrMigrationInDoubt", err)
		}

		a2 := restartSite(t, net, a, "b")
		restored := bootstrap(t, a2)
		if len(restored) != 0 {
			t.Errorf("recovery reinstated %v for a landed migration", restored)
		}
		if got := copies("scout", a2, b); got != 1 {
			t.Fatalf("agent copies = %d", got)
		}
		if got := agentCount(t, b, "scout"); got != 1 {
			t.Errorf("onArrival ran %d times", got)
		}
		if ids := a2.InDoubtMigrations(); len(ids) != 0 {
			t.Errorf("still in doubt after restart: %v", ids)
		}
	})

	t.Run("origin-crash-indoubt-not-landed", func(t *testing.T) {
		// The dispatch never reached the destination and the origin crashed
		// while in doubt. Restart queries the destination ("unknown") and
		// reinstates the journaled image.
		net := transport.NewInProcNet()
		store := walStore(t)
		a := newMigSite(t, net, "a", store)
		b := newMigSite(t, net, "b", persist.NewMemStore())
		link(t, a, "b")

		counterAgent(t, a, "scout")
		injectFaults(t, a, "b", map[string]*transport.FaultRule{
			verbDispatch:        {Fail: true},
			verbMigrationStatus: {Fail: true},
		})
		if _, err := a.DispatchAgent("scout", "b"); !errors.Is(err, ErrMigrationInDoubt) {
			t.Fatalf("dispatch error = %v, want ErrMigrationInDoubt", err)
		}

		a2 := restartSite(t, net, a, "b")
		restored := bootstrap(t, a2)
		if len(restored) != 1 || restored[0] != "scout" {
			t.Fatalf("restored = %v", restored)
		}
		if got := copies("scout", a2, b); got != 1 {
			t.Fatalf("agent copies = %d", got)
		}
		if _, err := a2.ResolveObject("scout"); err != nil {
			t.Errorf("agent not reinstated: %v", err)
		}
		if slots := journalMigrations(t, a2); len(slots) != 0 {
			t.Errorf("journal not pruned: %v", slots)
		}
	})

	t.Run("dest-crash-after-install", func(t *testing.T) {
		// The destination acknowledged the installation, then crashed. Its
		// restart must reinstall the agent from the arrival journal without
		// re-running onArrival.
		net := transport.NewInProcNet()
		store := walStore(t)
		a := newMigSite(t, net, "a", persist.NewMemStore())
		b := newMigSite(t, net, "b", store)
		link(t, a, "b")

		counterAgent(t, a, "scout")
		if _, err := a.DispatchAgent("scout", "b"); err != nil {
			t.Fatal(err)
		}
		if got := agentCount(t, b, "scout"); got != 1 {
			t.Fatalf("onArrival ran %d times before crash", got)
		}

		b2 := restartSite(t, net, b, "a")
		restored := bootstrap(t, b2)
		if len(restored) != 1 || restored[0] != "scout" {
			t.Fatalf("restored = %v", restored)
		}
		if got := copies("scout", a, b2); got != 1 {
			t.Fatalf("agent copies = %d", got)
		}
		// The replayed image is the one that was acked — onArrival was not
		// re-run during replay, so the restored count is the pre-arrival 0.
		if got := agentCount(t, b2, "scout"); got != 0 {
			t.Errorf("onArrival re-ran during replay: count = %d", got)
		}
	})
}

// TestDispatchArrivalError: an onArrival failure is reported to the caller
// but the migration still commits — installation was acknowledged first,
// so the agent lives at the destination.
func TestDispatchArrivalError(t *testing.T) {
	net := transport.NewInProcNet()
	a := newMigSite(t, net, "a", persist.NewMemStore())
	b := newMigSite(t, net, "b", persist.NewMemStore())
	link(t, a, "b")

	bld := a.NewAPOBuilder("Faulty")
	bld.FixedScriptMethod("onArrival", `fn(hop) { return ctx.lookup("no-such-object"); }`)
	if err := a.AddAPO("scout", bld.MustBuild()); err != nil {
		t.Fatal(err)
	}
	_, err := a.DispatchAgent("scout", "b")
	if err == nil || !strings.Contains(err.Error(), "onArrival") {
		t.Fatalf("dispatch error = %v, want onArrival failure", err)
	}
	if _, err := b.ResolveObject("scout"); err != nil {
		t.Errorf("agent not installed at destination: %v", err)
	}
	if _, err := a.ResolveObject("scout"); err == nil {
		t.Error("origin kept a copy despite the commit")
	}
	if slots := journalMigrations(t, a); len(slots) != 0 {
		t.Errorf("journal not pruned: %v", slots)
	}
}

// TestDispatchBindRollback verifies that an arrival that cannot be admitted
// changes nothing at the destination: the agent must not linger in Home or
// the object registry, whatever held the name keeps it, and the origin
// reinstates the agent. Two ways to fail: a squatter holds the name in the
// destination's registry, so the admission rule itself refuses (a bound
// name is never taken from a live object of another identity); and the
// agent's registration vanishes between Register and Rebind, as a racing
// eviction would make it, so the half-made installation is unwound.
func TestDispatchBindRollback(t *testing.T) {
	for _, mode := range []string{"squatter", "registration-vanishes"} {
		t.Run(mode, func(t *testing.T) {
			squatted := mode == "squatter"
			net := transport.NewInProcNet()
			a := newMigSite(t, net, "a", persist.NewMemStore())
			b := newMigSite(t, net, "b", persist.NewMemStore())
			link(t, a, "b")

			agent := inertAgent(t, a, "box")
			squatter := b.NewAPOBuilder("Squatter").MustBuild()
			if squatted {
				b.objects.Register(squatter.ID(), squatter)
				if err := b.objects.Bind("box", squatter.ID()); err != nil {
					t.Fatal(err)
				}
			} else {
				testHookPreBind = func(s *Site, name string) {
					if s == b && name == "box" {
						s.objects.Deregister(agent.ID())
					}
				}
				defer func() { testHookPreBind = nil }()
			}

			_, err := a.DispatchAgent("box", "b")
			if err == nil {
				t.Fatal("dispatch succeeded despite bind failure")
			}
			// Definite failure (the peer answered): the origin reinstates.
			if _, err := a.ResolveObject("box"); err != nil {
				t.Errorf("agent not reinstated at origin: %v", err)
			}
			// The destination is unchanged: not in Home, not in the registry;
			// the name still resolves to the squatter, if there was one.
			if _, err := b.APO("box"); err == nil {
				t.Error("partial install left the agent in Home")
			}
			if _, err := b.objects.LookupID(agent.ID()); err == nil {
				t.Error("partial install left the agent in the object registry")
			}
			want := 1 // a's reinstated agent
			if squatted {
				want = 2 // + b's squatter under the same name
				if obj, err := b.ResolveObject("box"); err != nil || obj.ID() != squatter.ID() {
					t.Errorf("name binding = %v, %v; want squatter", obj, err)
				}
			}
			if got := copies("box", a, b); got != want {
				t.Errorf("bindings under name = %d, want %d", got, want)
			}
		})
	}
}

// TestAgentLoopHomeJourney sends an agent A→B→A. The loop-home arrival
// record must survive the outer dispatch's commit (it is younger than the
// departure watermark), so a restarted origin still hosts the returned
// agent.
func TestAgentLoopHomeJourney(t *testing.T) {
	net := transport.NewInProcNet()
	store := walStore(t)
	a := newMigSite(t, net, "a", store)
	b := newMigSite(t, net, "b", persist.NewMemStore())
	link(t, a, "b")

	surveyAgent(t, a, "a") // itinerary: a → b → a
	result, err := a.DispatchAgent("scout", "b")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(result.String(), "done at a after 2 hops") {
		t.Errorf("journey result = %v", result)
	}
	if got := copies("scout", a, b); got != 1 {
		t.Fatalf("agent copies = %d", got)
	}
	back, err := a.ResolveObject("scout")
	if err != nil {
		t.Fatal(err)
	}
	visited, err := back.Get(back.Principal(), "visited")
	if err != nil {
		t.Fatal(err)
	}
	if visited.String() != `["b", "a"]` {
		t.Errorf("visited = %v", visited)
	}
	// The loop-home arrival record is still live (not marked departed).
	if recs := a.ArrivalRecords(); len(recs) != 1 {
		t.Fatalf("origin arrival records = %v", recs)
	}

	// Restart the origin: the journaled loop-home arrival reinstalls the
	// returned incarnation (with the state it had when shipped from b).
	a2 := restartSite(t, net, a, "b")
	restored := bootstrap(t, a2)
	if len(restored) != 1 || restored[0] != "scout" {
		t.Fatalf("restored = %v", restored)
	}
	if got := copies("scout", a2, b); got != 1 {
		t.Fatalf("agent copies after restart = %d", got)
	}
	back2, err := a2.ResolveObject("scout")
	if err != nil {
		t.Fatal(err)
	}
	v, err := back2.Get(back2.Principal(), "visited")
	if err != nil {
		t.Fatal(err)
	}
	if v.String() != `["b"]` {
		t.Errorf("replayed visited = %v (want the as-shipped image)", v)
	}
}

// TestConcurrentDispatchSameName races two dispatches of one agent to two
// different destinations: exactly one may win, and exactly one copy may
// exist afterwards.
func TestConcurrentDispatchSameName(t *testing.T) {
	net := transport.NewInProcNet()
	a := newMigSite(t, net, "a", persist.NewMemStore())
	b := newMigSite(t, net, "b", persist.NewMemStore())
	c := newMigSite(t, net, "c", persist.NewMemStore())
	link(t, a, "b")
	link(t, a, "c")

	inertAgent(t, a, "box")
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i, dest := range []string{"b", "c"} {
		wg.Add(1)
		go func(i int, dest string) {
			defer wg.Done()
			_, errs[i] = a.DispatchAgent("box", dest)
		}(i, dest)
	}
	wg.Wait()

	wins := 0
	for _, err := range errs {
		if err == nil {
			wins++
		}
	}
	if wins != 1 {
		t.Fatalf("concurrent dispatches: %d succeeded (errs: %v)", wins, errs)
	}
	if got := copies("box", a, b, c); got != 1 {
		t.Fatalf("agent copies = %d", got)
	}
	if slots := journalMigrations(t, a); len(slots) != 0 {
		t.Errorf("journal not pruned: %v", slots)
	}
}

// TestArrivalDedupPruning: agents that pass through b leave one departed
// record each, the forward pointer a trace reads. a's next dispatch
// acknowledges them, and past b's cap of two the oldest acknowledged
// pointers are evicted, memory and journal slots alike. The youngest
// record is not yet acknowledged and stays whatever the cap. A table that
// let its youngest pointers go too would answer "unknown" for box2.
func TestArrivalDedupPruning(t *testing.T) {
	net := transport.NewInProcNet()
	a := newMigSite(t, net, "a", persist.NewMemStore())
	b := newMigSiteCfg(t, net, Config{
		Name:              "b",
		Store:             persist.NewMemStore(),
		Resilience:        migPolicy(),
		MaxArrivalRecords: 2,
	})
	link(t, a, "b")
	link(t, b, "a")

	boxes := []string{"box0", "box1", "box2", "box3"}
	for _, n := range boxes {
		inertAgent(t, a, n)
		if _, err := a.DispatchAgent(n, "b"); err != nil {
			t.Fatal(err)
		}
		if _, err := b.DispatchAgent(n, "a"); err != nil {
			t.Fatal(err)
		}
	}
	recs := b.ArrivalRecords()
	if len(recs) != 2 {
		t.Fatalf("arrival records after pruning = %v", recs)
	}
	for i, n := range boxes {
		want := AgentStatus{State: "unknown"}
		if i >= 2 {
			want = AgentStatus{State: arrivalDeparted, Next: "a"}
		}
		if got := b.AgentArrivalStatus(n); got != want {
			t.Errorf("%s at b: %+v, want %+v", n, got, want)
		}
	}
	b.arrMu.Lock()
	unacked := len(b.arrUnacked["a"])
	b.arrMu.Unlock()
	if unacked != 1 {
		t.Errorf("%d records from a unacknowledged, want box3's alone", unacked)
	}
	// The journal mirrors the table: evicted slots are deleted.
	arrSlots := arrivalSlots(t, b)
	sort.Strings(arrSlots)
	if !reflect.DeepEqual(arrSlots, recs) {
		t.Errorf("journal arrival slots = %v, live table %v", arrSlots, recs)
	}
}

// TestDedupCapKeepsResidentAgents: an agent that arrived and stayed has one
// durable copy, its arrival record, until a checkpoint names it; and its
// origin may still ask about it until a later dispatch acknowledges it.
// The cap evicted the oldest *settled* record, live ones included: with a
// cap of two, four arrivals and a restart, the first two agents were gone.
// Now it evicts only acknowledged records that replay nothing: four live
// records stand over the cap until a checkpoint names their agents and
// the next dispatch from a acknowledges them.
func TestDedupCapKeepsResidentAgents(t *testing.T) {
	net := transport.NewInProcNet()
	a := newMigSite(t, net, "a", persist.NewMemStore())
	b := newMigSiteCfg(t, net, Config{
		Name:              "b",
		Store:             persist.NewMemStore(),
		Resilience:        migPolicy(),
		MaxArrivalRecords: 2,
	})
	link(t, a, "b")
	var names []string
	settle := func() {
		name := fmt.Sprintf("settler-%d", len(names))
		names = append(names, name)
		inertAgent(t, a, name)
		if _, err := a.DispatchAgent(name, "b"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		settle()
	}
	if got := len(b.ArrivalRecords()); got != 4 {
		t.Fatalf("%d arrival records for 4 resident agents", got)
	}
	b = restartSite(t, net, b)
	bootstrap(t, b)
	for _, n := range names {
		if got := copies(n, a, b); got != 1 {
			t.Fatalf("%s has %d live copies after the restart", n, got)
		}
	}

	// A checkpoint names all four: replay no longer needs their records,
	// but until a dispatch acknowledges them the cap does not touch them.
	if err := b.PersistAll(); err != nil {
		t.Fatal(err)
	}
	link(t, a, "b")
	settle()
	// The fifth dispatch acknowledged the four; the cap keeps the youngest
	// of them, and the fifth record, which is live and unacknowledged.
	b.arrMu.Lock()
	var kept []string
	for _, rec := range b.arrOrder {
		kept = append(kept, rec.name)
	}
	b.arrMu.Unlock()
	if want := []string{"settler-3", "settler-4"}; !reflect.DeepEqual(kept, want) {
		t.Fatalf("arrival records after a checkpoint and an ack are %v's, want %v's (cap 2)", kept, want)
	}
	b = restartSite(t, net, b)
	bootstrap(t, b)
	for _, n := range names {
		if got := copies(n, a, b); got != 1 {
			t.Fatalf("%s has %d live copies after checkpoint and restart", n, got)
		}
	}
}

// TestInDoubtOutlivesDedupCap: an in-doubt origin's arrival record outlives
// any traffic at its destination. a ships scout to b and hears neither the
// reply nor the status answer. While a holds that migration in doubt it
// sends a courier to b, b sends scout on to c, and three agents bounce
// c → b → c through b's table of two. Healed, a resolves against b: the
// agent landed, a commits, and scout lives at c alone. A cap that evicts
// unacknowledged records, or an ack of the highest migration a prepared
// instead of the first one still pending, lets b answer "unknown", and a
// reinstates a second copy.
func TestInDoubtOutlivesDedupCap(t *testing.T) {
	net := transport.NewInProcNet()
	a := newMigSite(t, net, "a", persist.NewMemStore())
	b := newMigSiteCfg(t, net, Config{
		Name:              "b",
		Store:             persist.NewMemStore(),
		Resilience:        migPolicy(),
		MaxArrivalRecords: 2,
	})
	c := newMigSite(t, net, "c", persist.NewMemStore())
	link(t, a, "b")
	link(t, b, "c")
	link(t, c, "b")

	counterAgent(t, a, "scout")
	injectFaults(t, a, "b", map[string]*transport.FaultRule{
		verbDispatch:        {Fail: true, FailAfter: true},
		verbMigrationStatus: {Fail: true},
	})
	if _, err := a.DispatchAgent("scout", "b"); !errors.Is(err, ErrMigrationInDoubt) {
		t.Fatalf("dispatch error = %v, want ErrMigrationInDoubt", err)
	}
	healFaults(t, a, "b")
	inertAgent(t, a, "courier")
	if _, err := a.DispatchAgent("courier", "b"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.DispatchAgent("scout", "c"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("bouncer-%d", i)
		inertAgent(t, c, name)
		if _, err := c.DispatchAgent(name, "b"); err != nil {
			t.Fatal(err)
		}
		if _, err := b.DispatchAgent(name, "c"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.ResolveMigrations(); err != nil {
		t.Fatal(err)
	}
	if got := copies("scout", a, b, c); got != 1 {
		t.Fatalf("scout has %d live copies after a resolved its doubt", got)
	}
	if _, err := c.ResolveObject("scout"); err != nil {
		t.Errorf("scout is not at c: %v", err)
	}
	if ids := a.InDoubtMigrations(); len(ids) != 0 {
		t.Errorf("still in doubt: %v", ids)
	}
}

// TestArrivalTableBoundedByAgents: eight agents make 5 000 hops between two
// WAL sites, each agent in a goroutine of its own, at the default cap. The
// origin's next dispatch lets each record go once a younger one of its
// agent stands beside it, so each site ends with no more than two records
// per agent, and its journal holds exactly the table's slots. A table that
// keeps each record until a count cap evicts it holds ~2 500 here.
func TestArrivalTableBoundedByAgents(t *testing.T) {
	const agents, hops = 8, 5000
	net := transport.NewInProcNet()
	a := newMigSite(t, net, "a", walStore(t))
	b := newMigSite(t, net, "b", walStore(t))
	link(t, a, "b")
	link(t, b, "a")
	var wg sync.WaitGroup
	errs := make(chan error, agents)
	for i := 0; i < agents; i++ {
		name := fmt.Sprintf("agent-%d", i)
		inertAgent(t, a, name)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for h := 0; h < hops/agents/2; h++ {
				if _, err := a.DispatchAgent(name, "b"); err != nil {
					errs <- err
					return
				}
				if _, err := b.DispatchAgent(name, "a"); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for _, s := range []*Site{a, b} {
		recs := s.ArrivalRecords()
		if len(recs) > 2*agents {
			t.Errorf("site %s holds %d arrival records for %d agents", s.Name(), len(recs), agents)
		}
		slots := arrivalSlots(t, s)
		sort.Strings(slots)
		if !reflect.DeepEqual(slots, recs) {
			t.Errorf("site %s: journal arrival slots %v, table %v", s.Name(), slots, recs)
		}
	}
}

// TestUpdateAmbassadorsSkipsDownPeers: a host whose breaker is open and
// cooling down is skipped (no call attempted, error reported) while
// healthy hosts still update.
func TestUpdateAmbassadorsSkipsDownPeers(t *testing.T) {
	net := transport.NewInProcNet()
	hq := newMigSiteCfg(t, net, Config{
		Name:       "hq",
		Resilience: transport.ResilientPolicy{BaseBackoff: time.Millisecond, FailureThreshold: 1, Cooldown: time.Minute},
	})
	hostB := newMigSite(t, net, "b", nil)
	hostC := newMigSite(t, net, "c", nil)
	link(t, hq, "b")
	link(t, hq, "c")

	bld := hq.NewAPOBuilder("Payroll")
	bld.FixedScriptMethod("hello", `fn() { return "hi"; }`)
	if err := hq.AddAPO("payroll", bld.MustBuild()); err != nil {
		t.Fatal(err)
	}
	if _, err := hostB.Import("hq", "payroll"); err != nil {
		t.Fatal(err)
	}
	if _, err := hostC.Import("hq", "payroll"); err != nil {
		t.Fatal(err)
	}

	// Cut the wire to c and open its breaker with one failed call.
	fc := &transport.FaultConn{}
	if err := hq.SetPeerConn("c", fc); err != nil {
		t.Fatal(err)
	}
	if _, err := hq.InvokeRemote("c", hq.IOO().Principal(), "x", "y"); err == nil {
		t.Fatal("call over cut wire succeeded")
	}
	if st, err := hq.PeerStatus("c"); err != nil || st.State != transport.BreakerOpen {
		t.Fatalf("peer c status = %+v, %v; want open breaker", st, err)
	}
	if up := hq.UpPeerNames(); len(up) != 1 || up[0] != "b" {
		t.Fatalf("UpPeerNames = %v", up)
	}

	before := fc.Calls()
	updated, err := hq.UpdateAmbassadors("payroll", "addDataItem",
		value.NewString("note"), value.NewString("updated"))
	if updated != 1 {
		t.Errorf("updated = %d, want 1 (b only)", updated)
	}
	if !errors.Is(err, ErrPeerDown) {
		t.Errorf("error = %v, want ErrPeerDown", err)
	}
	if fc.Calls() != before {
		t.Errorf("skipped peer was still called (%d → %d)", before, fc.Calls())
	}

	// The IOO's upPeers view reads the same breakers.
	v, err := hq.IOO().InvokeSelf("upPeers")
	if err != nil {
		t.Fatal(err)
	}
	if v.String() != `["b"]` {
		t.Errorf("ioo.upPeers = %v", v)
	}
	_ = hostC
}

// TestUpdateAmbassadorsProbesCooledDownPeer: a host whose breaker opened,
// whose wire healed and whose cooldown has run out — with no background
// prober to close the breaker — gets the half-open probe from the fan-out
// itself, and then its update.
func TestUpdateAmbassadorsProbesCooledDownPeer(t *testing.T) {
	const cooldown = 20 * time.Millisecond
	net := transport.NewInProcNet()
	hq := newMigSiteCfg(t, net, Config{
		Name:       "hq",
		Resilience: transport.ResilientPolicy{BaseBackoff: time.Millisecond, FailureThreshold: 1, Cooldown: cooldown},
	})
	hostB := newMigSite(t, net, "b", nil)
	hostC := newMigSite(t, net, "c", nil)
	link(t, hq, "b")
	link(t, hq, "c")

	bld := hq.NewAPOBuilder("Payroll")
	bld.FixedScriptMethod("hello", `fn() { return "hi"; }`)
	if err := hq.AddAPO("payroll", bld.MustBuild()); err != nil {
		t.Fatal(err)
	}
	if _, err := hostB.Import("hq", "payroll"); err != nil {
		t.Fatal(err)
	}
	local, err := hostC.Import("hq", "payroll")
	if err != nil {
		t.Fatal(err)
	}

	fc := cutPeerWire(t, net, hq, "c")
	fc.Cut()
	if _, err := hq.InvokeRemote("c", hq.IOO().Principal(), "x", "y"); err == nil {
		t.Fatal("call over cut wire succeeded")
	}
	if st, _ := hq.PeerStatus("c"); st.State != transport.BreakerOpen {
		t.Fatalf("peer c status = %+v, want open breaker", st)
	}
	fc.Heal()
	time.Sleep(2 * cooldown)

	updated, err := hq.UpdateAmbassadors("payroll", "addDataItem",
		value.NewString("note"), value.NewString("updated"))
	if err != nil || updated != 2 {
		t.Fatalf("UpdateAmbassadors = %d, %v; want 2 (b and the cooled-down c)", updated, err)
	}
	if fc.Pings() == 0 {
		t.Error("no half-open probe reached c")
	}
	if st, _ := hq.PeerStatus("c"); st.State != transport.BreakerClosed {
		t.Errorf("peer c status = %+v, want closed", st)
	}
	amb, err := hostC.ResolveObject(local)
	if err != nil {
		t.Fatal(err)
	}
	if note, err := amb.Get(amb.Principal(), "note"); err != nil || note.String() != "updated" {
		t.Errorf("c's note = %v, %v", note, err)
	}
}

// TestDispatchFailsFastWhenPeerDown: a destination with an open breaker is
// refused before any journal record is written.
func TestDispatchFailsFastWhenPeerDown(t *testing.T) {
	net := transport.NewInProcNet()
	a := newMigSiteCfg(t, net, Config{
		Name:       "a",
		Store:      persist.NewMemStore(),
		Resilience: transport.ResilientPolicy{BaseBackoff: time.Millisecond, FailureThreshold: 1, Cooldown: time.Minute},
	})
	b := newMigSite(t, net, "b", nil)
	link(t, a, "b")
	_ = b

	inertAgent(t, a, "box")
	fc := &transport.FaultConn{}
	if err := a.SetPeerConn("b", fc); err != nil {
		t.Fatal(err)
	}
	if _, err := a.InvokeRemote("b", a.IOO().Principal(), "x", "y"); err == nil {
		t.Fatal("call over cut wire succeeded")
	}

	calls := fc.Calls()
	_, err := a.DispatchAgent("box", "b")
	if !errors.Is(err, ErrPeerDown) {
		t.Fatalf("dispatch error = %v, want ErrPeerDown", err)
	}
	if fc.Calls() != calls {
		t.Error("fail-fast dispatch still hit the wire")
	}
	if _, err := a.ResolveObject("box"); err != nil {
		t.Errorf("agent lost on fail-fast refusal: %v", err)
	}
	if slots := journalMigrations(t, a); len(slots) != 0 {
		t.Errorf("fail-fast dispatch journaled %v", slots)
	}
	if ids := a.InDoubtMigrations(); len(ids) != 0 {
		t.Errorf("fail-fast dispatch left doubt: %v", ids)
	}
}

// TestDispatchProbesHealedPeer: with no background prober, a destination
// whose wire healed and whose cooldown has run out is half-open, not down:
// it is listed up, and the next dispatch runs the probe and lands.
func TestDispatchProbesHealedPeer(t *testing.T) {
	const cooldown = 20 * time.Millisecond
	net := transport.NewInProcNet()
	a := newMigSiteCfg(t, net, Config{
		Name:       "a",
		Store:      persist.NewMemStore(),
		Resilience: transport.ResilientPolicy{BaseBackoff: time.Millisecond, FailureThreshold: 1, Cooldown: cooldown},
	})
	b := newMigSite(t, net, "b", nil)
	link(t, a, "b")
	inertAgent(t, a, "box")

	fc := cutPeerWire(t, net, a, "b")
	fc.Cut()
	if _, err := a.InvokeRemote("b", a.IOO().Principal(), "x", "y"); err == nil {
		t.Fatal("call over cut wire succeeded")
	}
	if _, err := a.DispatchAgent("box", "b"); !errors.Is(err, ErrPeerDown) {
		t.Fatalf("dispatch inside the cooldown: %v, want ErrPeerDown", err)
	}
	fc.Heal()
	time.Sleep(3 * cooldown)

	if st, _ := a.PeerStatus("b"); st.State != transport.BreakerHalfOpen {
		t.Errorf("cooled-down peer status = %+v, want half-open", st)
	}
	if up := a.UpPeerNames(); len(up) != 1 || up[0] != "b" {
		t.Errorf("UpPeerNames = %v, want [b]", up)
	}
	if _, err := a.DispatchAgent("box", "b"); err != nil {
		t.Fatalf("dispatch past the cooldown: %v", err)
	}
	if fc.Pings() == 0 {
		t.Error("no half-open probe reached b")
	}
	if _, err := b.ResolveObject("box"); err != nil {
		t.Errorf("agent did not land at b: %v", err)
	}
}

// TestMigrationStatusUnknown: a status query for a migration the
// destination never saw answers "unknown", not an error.
func TestMigrationStatusUnknown(t *testing.T) {
	net := transport.NewInProcNet()
	a := newMigSite(t, net, "a", nil)
	b := newMigSite(t, net, "b", nil)
	link(t, a, "b")
	_ = b

	st, err := a.MigrationStatusAt("b", "never-happened")
	if err != nil {
		t.Fatal(err)
	}
	if st.Landed || st.State != "unknown" {
		t.Errorf("status = %+v, want unknown/not landed", st)
	}
}
