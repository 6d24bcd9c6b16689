package hadas

import (
	"slices"
	"testing"
	"time"

	"repro/internal/persist"
	"repro/internal/transport"
	"repro/internal/value"
)

// inDoubtMigration drives a dispatch from a to an unreachable dest: both
// the dispatch and the status query fail at the transport, so the
// migration journals IN-DOUBT and stays pending. Returns the fault conn
// for later healing.
func inDoubtMigration(t *testing.T, a *Site, dest, agentName string) *transport.FaultConn {
	t.Helper()
	fc := injectFaults(t, a, dest, map[string]*transport.FaultRule{
		verbDispatch:        {Fail: true},
		verbMigrationStatus: {Fail: true},
	})
	if _, err := a.DispatchAgent(agentName, dest); err == nil {
		t.Fatal("dispatch through a dead wire should not succeed")
	}
	if got := len(a.MigrationReport()); got != 1 {
		t.Fatalf("pending migrations = %d, want 1", got)
	}
	return fc
}

func TestMigrationOrphanedByAttemptCap(t *testing.T) {
	net := transport.NewInProcNet()
	a := newMigSiteCfg(t, net, Config{
		Name: "a", Store: persist.NewMemStore(), Resilience: migPolicy(),
		MaxMigrationAttempts: 3,
	})
	b := newMigSite(t, net, "b", nil)
	link(t, a, "b")
	link(t, b, "a")
	inertAgent(t, a, "ag")

	inDoubtMigration(t, a, "b", "ag")

	// Each failed resolution round consumes attempt budget, after the one
	// the live dispatch's failed query spent.
	for i := 1; i <= 2; i++ {
		if _, err := a.ResolveMigrations(); err != nil {
			t.Fatal(err)
		}
		rep := a.MigrationReport()
		if len(rep) != 1 || rep[0].Attempts != i+1 {
			t.Fatalf("after round %d: report %+v", i, rep)
		}
	}

	// At the cap: orphaned — out of InDoubtMigrations, flagged in the
	// report, and no longer retried even over a healed wire.
	rep := a.MigrationReport()
	if len(rep) != 1 || !rep[0].Orphaned || rep[0].Name != "ag" || rep[0].Dest != "b" {
		t.Fatalf("report = %+v, want one orphaned record for ag→b", rep)
	}
	if got := a.InDoubtMigrations(); len(got) != 0 {
		t.Fatalf("orphaned record still listed in-doubt: %v", got)
	}
	if got := a.OrphanedMigrations(); len(got) != 1 {
		t.Fatalf("orphaned migrations = %d, want 1", len(got))
	}
	healFaults(t, a, "b")
	reinstated, err := a.ResolveMigrations()
	if err != nil {
		t.Fatal(err)
	}
	if len(reinstated) != 0 {
		t.Fatalf("orphaned migration was auto-resolved: %v", reinstated)
	}
	if rep := a.MigrationReport(); len(rep) != 1 || rep[0].Attempts != 3 {
		t.Fatalf("orphaned record should be untouched, got %+v", rep)
	}
}

func TestMigrationOrphanedByAgeCap(t *testing.T) {
	net := transport.NewInProcNet()
	a := newMigSiteCfg(t, net, Config{
		Name: "a", Store: persist.NewMemStore(), Resilience: migPolicy(),
		MaxMigrationAge: time.Nanosecond,
	})
	b := newMigSite(t, net, "b", nil)
	link(t, a, "b")
	link(t, b, "a")
	inertAgent(t, a, "ag")

	inDoubtMigration(t, a, "b", "ag")
	healFaults(t, a, "b")

	// Even over a healthy wire the record is past its age cap: resolution
	// skips it and it surfaces as orphaned.
	if _, err := a.ResolveMigrations(); err != nil {
		t.Fatal(err)
	}
	orphans := a.OrphanedMigrations()
	if len(orphans) != 1 || orphans[0].Attempts != 1 {
		t.Fatalf("orphans = %+v, want one aged-out record with the live query's 1 attempt", orphans)
	}
}

func TestMigrationAttemptsSurviveRestart(t *testing.T) {
	net := transport.NewInProcNet()
	a := newMigSite(t, net, "a", persist.NewMemStore())
	b := newMigSite(t, net, "b", nil)
	link(t, a, "b")
	link(t, b, "a")
	inertAgent(t, a, "ag")

	// The live dispatch resolves through recovery's path: its failed status
	// query spends the first attempt. The report reads the journal.
	inDoubtMigration(t, a, "b", "ag")
	if rep := a.MigrationReport(); len(rep) != 1 || rep[0].State != migrationInDoubt || rep[0].Attempts != 1 {
		t.Fatalf("report after the live dispatch: %+v, want in doubt with 1 attempt", rep)
	}
	if _, err := a.ResolveMigrations(); err != nil {
		t.Fatal(err)
	}
	if rep := a.MigrationReport(); len(rep) != 1 || rep[0].Attempts != 2 {
		t.Fatalf("report before restart: %+v", rep)
	}

	// The attempt count is journaled: a restart resumes the orphan clock
	// instead of resetting it. (b is unreachable from the restarted a —
	// no Link — so bootstrap's resolution round fails and counts too.)
	a2 := restartSite(t, net, a)
	bootstrap(t, a2)
	rep := a2.MigrationReport()
	if len(rep) != 1 || rep[0].Attempts < 3 {
		t.Fatalf("report after restart: %+v, want attempts ≥ 3", rep)
	}
}

// TestAgentItineraryTrace follows an agent a→b→c through departed-record
// next hops: every site on the path answers where the agent went, and the
// final site answers resident — locally, and stitched by TraceAgent from
// hadas.migration.status answers.
func TestAgentItineraryTrace(t *testing.T) {
	net := transport.NewInProcNet()
	stores := map[string]persist.Backend{
		"a": persist.NewMemStore(), "b": persist.NewMemStore(), "c": persist.NewMemStore(),
	}
	sites := map[string]*Site{}
	for _, n := range []string{"a", "b", "c"} {
		sites[n] = newMigSite(t, net, n, stores[n])
	}
	for _, x := range []string{"a", "b", "c"} {
		for _, y := range []string{"a", "b", "c"} {
			if x != y {
				link(t, sites[x], y)
			}
		}
	}
	inertAgent(t, sites["a"], "ag")

	if _, err := sites["a"].DispatchAgent("ag", "b"); err != nil {
		t.Fatal(err)
	}
	if _, err := sites["b"].DispatchAgent("ag", "c"); err != nil {
		t.Fatal(err)
	}

	// Local views: birth site and relay site both point at the next hop
	// (the birth site through its synthetic departure record).
	if st := sites["a"].AgentArrivalStatus("ag"); st.State != arrivalDeparted || st.Next != "b" {
		t.Fatalf("a's view = %+v, want departed→b", st)
	}
	if st := sites["b"].AgentArrivalStatus("ag"); st.State != arrivalDeparted || st.Next != "c" {
		t.Fatalf("b's view = %+v, want departed→c", st)
	}
	if st := sites["c"].AgentArrivalStatus("ag"); st.State != AgentStatusResident {
		t.Fatalf("c's view = %+v, want resident", st)
	}

	// The same trace over the wire, stitched from every peer's view.
	path, st, err := sites["a"].TraceAgent("", "ag")
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(path, []string{"a", "b", "c"}) || st.State != AgentStatusResident {
		t.Fatalf("trace = %v ending %+v, want [a b c] ending resident", path, st)
	}
}

// TestChainedDepartureStaysDeparted: an agent whose onArrival immediately
// chains the next hop departs the relay site *inside* its own arrival
// handler. Recording the arrival's outcome afterwards must not regress
// the record from departed back to done — a done record would break the
// itinerary trace and be replayed into a duplicate copy after a crash.
func TestChainedDepartureStaysDeparted(t *testing.T) {
	net := transport.NewInProcNet()
	a := newMigSite(t, net, "a", persist.NewMemStore())
	b := newMigSite(t, net, "b", persist.NewMemStore())
	c := newMigSite(t, net, "c", persist.NewMemStore())
	for _, pair := range [][2]*Site{{a, b}, {b, a}, {b, c}, {c, b}, {a, c}, {c, a}} {
		link(t, pair[0], pair[1].Name())
	}
	bld := a.NewAPOBuilder("Hopper")
	bld.ExtData("itinerary", value.NewListOf(value.NewString("c")))
	bld.FixedScriptMethod("onArrival", `fn(hop) {
		let it = self.itinerary;
		if len(it) == 0 { return "rest"; }
		let next = it[0];
		self.itinerary = slice(it, 1, len(it));
		let ioo = ctx.lookup("ioo");
		return ioo.dispatchAgent(hop["agent"], next);
	}`)
	if err := a.AddAPO("ag", bld.MustBuild()); err != nil {
		t.Fatal(err)
	}
	if _, err := a.DispatchAgent("ag", "b"); err != nil {
		t.Fatal(err)
	}
	// The chain ran a→b→c inside one dispatch call; b's record must say
	// departed→c, not done.
	if st := b.AgentArrivalStatus("ag"); st.State != arrivalDeparted || st.Next != "c" {
		t.Fatalf("b's view = %+v, want departed→c", st)
	}
	if n := copies("ag", a, b, c); n != 1 {
		t.Fatalf("copies = %d, want exactly 1", n)
	}
	// And a crash of the relay must not resurrect the agent from the
	// arrival record.
	b2 := restartSite(t, net, b, "a", "c")
	bootstrap(t, b2)
	if st := b2.AgentArrivalStatus("ag"); st.State != arrivalDeparted || st.Next != "c" {
		t.Fatalf("restarted b's view = %+v, want departed→c", st)
	}
	if n := copies("ag", a, b2, c); n != 1 {
		t.Fatalf("copies after relay restart = %d, want exactly 1", n)
	}
}

// TestAgentTraceSurvivesRestart: departed records are journaled, so the
// trace still works after the relay site crashes and recovers.
func TestAgentTraceSurvivesRestart(t *testing.T) {
	net := transport.NewInProcNet()
	a := newMigSite(t, net, "a", persist.NewMemStore())
	b := newMigSite(t, net, "b", persist.NewMemStore())
	c := newMigSite(t, net, "c", persist.NewMemStore())
	for _, pair := range [][2]*Site{{a, b}, {b, a}, {b, c}, {c, b}, {a, c}, {c, a}} {
		link(t, pair[0], pair[1].Name())
	}
	inertAgent(t, a, "ag")
	if _, err := a.DispatchAgent("ag", "b"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.DispatchAgent("ag", "c"); err != nil {
		t.Fatal(err)
	}

	b2 := restartSite(t, net, b, "a", "c")
	bootstrap(t, b2)
	if st := b2.AgentArrivalStatus("ag"); st.State != arrivalDeparted || st.Next != "c" {
		t.Fatalf("restarted b's view = %+v, want departed→c", st)
	}
	if n := copies("ag", a, b2, c); n != 1 {
		t.Fatalf("copies = %d, want exactly 1", n)
	}
}

// TestLoopHomeTraceStaysResident: an itinerary that returns home must
// answer resident at home, not follow a stale departure pointer.
func TestLoopHomeTraceStaysResident(t *testing.T) {
	net := transport.NewInProcNet()
	a := newMigSite(t, net, "a", persist.NewMemStore())
	b := newMigSite(t, net, "b", persist.NewMemStore())
	link(t, a, "b")
	link(t, b, "a")
	inertAgent(t, a, "ag")

	if _, err := a.DispatchAgent("ag", "b"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.DispatchAgent("ag", "a"); err != nil {
		t.Fatal(err)
	}
	if st := a.AgentArrivalStatus("ag"); st.State != AgentStatusResident {
		t.Fatalf("a's view after loop home = %+v, want resident", st)
	}
	if st := b.AgentArrivalStatus("ag"); st.State != arrivalDeparted || st.Next != "a" {
		t.Fatalf("b's view = %+v, want departed→a", st)
	}
}

// TestReimportKeepsOneDeployment: a host that re-imports (e.g. after a
// crash) replaces its deployment row instead of accumulating stale
// ambassador IDs that would fail every future UpdateAmbassadors fan-out.
func TestReimportKeepsOneDeployment(t *testing.T) {
	net := transport.NewInProcNet()
	a := newMigSite(t, net, "a", nil)
	b := newMigSite(t, net, "b", nil)
	link(t, a, "b")
	link(t, b, "a")

	bld := a.NewAPOBuilder("Svc")
	bld.FixedScriptMethod("status", `fn() { return "live"; }`)
	if err := a.AddAPO("svc", bld.MustBuild()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := b.Import("a", "svc"); err != nil {
			t.Fatal(err)
		}
	}
	if dep := a.Deployments("svc"); len(dep) != 1 {
		t.Fatalf("deployments = %v, want exactly one row for b", dep)
	}
	updated, err := a.UpdateAmbassadors("svc", "addDataItem",
		value.NewString("note"), value.NewString("x"))
	if err != nil {
		t.Fatalf("update after re-imports: %v", err)
	}
	if updated != 1 {
		t.Fatalf("updated = %d, want 1", updated)
	}
}
