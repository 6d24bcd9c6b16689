// Package chaos is a seeded, deterministic chaos harness for a HADAS site
// mesh. A run stands up a many-site topology whose every connection passes
// through a transport.FaultNet, then drives epochs of concurrent churn —
// random partitions, site crashes with restart over the same persist
// store, fleets of agents on loop-home itineraries, remote counter
// invocations, and live ambassador rewrites (the §5 database-shutdown
// scenario) — and after each epoch heals the mesh, waits for quiescence,
// and asserts the model's global safety invariants:
//
//   - every agent has exactly one live copy, and the departed-record
//     itinerary trace (hadas.migration.status) locates that copy;
//   - every counter's value equals the number of acknowledged increments —
//     no invocation effect is lost or duplicated by retries, crashes or
//     in-doubt migration resolution;
//   - every site's view of every service ambassador converges to the
//     latest rewrite once partitions heal;
//   - no migration stays IN-DOUBT once its destination is reachable, and
//     none is orphaned;
//   - every deliberately injected cross-site Serialized admission cycle
//     (deadlock churn) resolves via edge-chasing probes: exactly one
//     chain fails ErrDeadlock, the other completes, and the
//     admission-timeout backstop never fires anywhere in the run.
//
// The fault schedule is drawn entirely up front from the run's seed, so a
// failing run is reproducible from its seed alone; availability and
// latency of every churn operation are recorded for the SLO gate
// (cmd/chaosgate).
package chaos

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/hadas"
	"repro/internal/persist"
	"repro/internal/security"
	"repro/internal/transport"
	"repro/internal/value"
)

// Config holds a run's knobs. A zero Seed is a valid seed; zero sizing
// knobs take defaults (5 sites, 4 epochs, 4 clients × 20 ops, 4 agents,
// 3 hops).
type Config struct {
	Seed int64
	// Sites is the mesh size (fully linked).
	Sites int
	// Epochs is the number of churn → heal → quiesce → check rounds.
	Epochs int
	// Clients is the number of concurrent invoker goroutines per epoch.
	Clients int
	// OpsPerClient is the number of remote counter increments per client
	// per epoch.
	OpsPerClient int
	// Agents is the fleet size; agent k's home is site k mod Sites.
	Agents int
	// MaxHops bounds one journey's intermediate hops (the itinerary then
	// loops home).
	MaxHops int
	// Store builds the persist store for a site, once at setup; restarts
	// reuse it. Nil uses a MemStore per site.
	Store func(site string) (persist.Backend, error)
	// Transcript, when set, receives schedule and verdict lines as the
	// run produces them.
	Transcript io.Writer

	// Sabotage seams, for tests only: each deliberately breaks one global
	// invariant during the final epoch's check, proving the checker
	// catches a real bug rather than vacuously passing.
	SabotageDuplicateAgent bool
	SabotageCounterDrift   bool
	// SabotageDeadlockBlind installs the dlock objects without Serialized
	// admission, so injected "cycles" never actually interlock and both
	// calls succeed — the exactly-one-ErrDeadlock-victim invariant must
	// catch that the detector was never exercised.
	SabotageDeadlockBlind bool
}

func (cfg Config) withDefaults() Config {
	if cfg.Sites < 2 {
		cfg.Sites = 5
	}
	if cfg.Epochs < 1 {
		cfg.Epochs = 4
	}
	if cfg.Clients < 1 {
		cfg.Clients = 4
	}
	if cfg.OpsPerClient < 1 {
		cfg.OpsPerClient = 20
	}
	if cfg.Agents < 1 {
		cfg.Agents = 4
	}
	if cfg.MaxHops < 1 {
		cfg.MaxHops = 3
	}
	return cfg
}

// behaviorAdd is the counter-increment native behavior. It is registered
// on every site (so counters rebuilt from images after a crash find it)
// and persists the object before returning: an increment is durable
// before it is acknowledged, which is what makes "counter value == acks
// issued" checkable across crashes.
const behaviorAdd = "chaos.add"

// behaviorCycle and behaviorEnter drive the deadlock churn: "cycle" is
// invoked on a site's Serialized dlock, rendezvouses with its partner (so
// both chains provably hold their local admission before either calls
// out), then invokes "enter" on the partner site's dlock — closing a
// genuine cross-site admission cycle that only the edge-chasing probes
// can break before the backstop.
const (
	behaviorCycle = "chaos.cycle"
	behaviorEnter = "chaos.enter"
	// dlockName is each site's deadlock-churn lock APO. It is installed
	// after the setup PersistAll — deliberately outside the Home manifest,
	// because an Image does not carry Serialized admission options and a
	// crash-restart would otherwise resurrect it as a plain object; heal()
	// re-installs it fresh instead.
	dlockName = "dlock"
	// dlockBackstop is the dlock AdmissionTimeout — the firing the run
	// must never see (probes detect in ~reprobeInterval), kept under the
	// sites' CallTimeout so a detection bug surfaces as the countable
	// ErrAdmissionTimeout rather than an opaque call timeout.
	dlockBackstop = 8 * time.Second
)

// agentScript walks the itinerary stored on the agent: pop the next hop
// and chain another dispatch through the hosting IOO, or rest when empty.
const agentScript = `fn(hop) {
	self.hops = self.hops + 1;
	let it = self.itinerary;
	if len(it) == 0 {
		return "rest";
	}
	let next = it[0];
	self.itinerary = slice(it, 1, len(it));
	let ioo = ctx.lookup("ioo");
	return ioo.dispatchAgent(hop["agent"], next);
}`

type harness struct {
	cfg  Config
	fnet *transport.FaultNet

	names  []string
	stores []persist.Backend
	sites  []*hadas.Site
	down   []bool

	// dropArm holds, per ordered pair, the shared armed-drop counter of
	// the pair's hadas.dispatch rule (pre-registered before any traffic).
	dropArm map[[2]int]*atomic.Int64

	// acked counts acknowledged increments per target site's counter.
	acked []atomic.Int64
	// ambVersion is the latest rewrite version per origin (0: pristine).
	ambVersion []int
	// objLocks serializes read-modify-write-persist on counter objects.
	objLocks sync.Map
	// barriers holds one two-party rendezvous (a *sync.WaitGroup at 2) per
	// in-flight deadlock pair, keyed by the pair's schedule key; the cycle
	// behavior joins it so both chains hold their local dlock before
	// either calls across.
	barriers sync.Map
	// dlocksInjected / dlocksResolved count the deadlock pairs actually
	// run and the ones that resolved cleanly (one victim, one survivor).
	dlocksInjected int64
	dlocksResolved int64

	opMu    sync.Mutex
	classes map[string]int64
	lats    []time.Duration

	violations []string
	transcript []string
}

func siteName(i int) string       { return fmt.Sprintf("s%d", i) }
func agentName(a int) string      { return fmt.Sprintf("agent-%d", a) }
func counterName(s string) string { return "counter-" + s }

func marker(origin string, version int) string {
	return fmt.Sprintf("svc@%s v%d", origin, version)
}

// Run executes one seeded chaos run and returns its report. An error
// means the harness itself could not be built; invariant violations and
// availability are reported, not returned.
func Run(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	started := time.Now()
	sched := buildSchedule(rand.New(rand.NewSource(cfg.Seed)), cfg)
	h, err := newHarness(cfg)
	if err != nil {
		return nil, err
	}
	defer h.close()
	for _, line := range sched.render() {
		h.emit(line)
	}
	for e, plan := range sched.epochs {
		h.applyStart(plan)
		h.runWorkload(e, plan)
		h.heal(e)
		h.quiesce(e)
		h.reapplyRewrites(e)
		h.sabotage(e)
		h.checkEpoch(e)
	}
	return h.report(started, sched), nil
}

func newHarness(cfg Config) (*harness, error) {
	h := &harness{
		cfg:        cfg,
		fnet:       transport.NewFaultNet(transport.NewInProcNet()),
		names:      make([]string, cfg.Sites),
		stores:     make([]persist.Backend, cfg.Sites),
		sites:      make([]*hadas.Site, cfg.Sites),
		down:       make([]bool, cfg.Sites),
		dropArm:    make(map[[2]int]*atomic.Int64),
		acked:      make([]atomic.Int64, cfg.Sites),
		ambVersion: make([]int, cfg.Sites),
		classes:    make(map[string]int64),
	}
	for i := range h.names {
		h.names[i] = siteName(i)
	}
	// Register the dispatch drop rule of every ordered pair before any
	// connection exists: the rule table is shared lock-free with every
	// conn of the pair, so it must be complete before traffic starts.
	for i := range h.names {
		for j := range h.names {
			if i == j {
				continue
			}
			r := h.fnet.Link(h.names[i], h.names[j]).Rule("hadas.dispatch")
			r.FailAfter = true // deliver, then drop the response: ambiguous
			arm := &atomic.Int64{}
			r.DropNext = arm
			h.dropArm[[2]int{i, j}] = arm
		}
	}
	for i := range h.sites {
		var err error
		if cfg.Store != nil {
			h.stores[i], err = cfg.Store(h.names[i])
		} else {
			h.stores[i] = persist.NewMemStore()
		}
		if err != nil {
			return nil, fmt.Errorf("chaos: store for %s: %w", h.names[i], err)
		}
		s, addBody, err := h.newSite(i)
		if err != nil {
			return nil, err
		}
		h.sites[i] = s
		if err := h.installHome(i, addBody); err != nil {
			return nil, err
		}
	}
	for i := range h.sites {
		for j := range h.sites {
			if i < j {
				if _, err := h.sites[i].Link(h.names[j]); err != nil {
					return nil, fmt.Errorf("chaos: link %s→%s: %w", h.names[i], h.names[j], err)
				}
			}
		}
	}
	for i := range h.sites {
		for j := range h.sites {
			if i == j {
				continue
			}
			if _, err := h.sites[i].Import(h.names[j], "svc"); err != nil {
				return nil, fmt.Errorf("chaos: import svc@%s at %s: %w", h.names[j], h.names[i], err)
			}
		}
	}
	for a := 0; a < cfg.Agents; a++ {
		home := h.sites[a%cfg.Sites]
		b := home.NewAPOBuilder("ChaosAgent")
		b.ExtData("itinerary", value.NewList(nil))
		b.ExtData("hops", value.NewInt(0))
		b.FixedScriptMethod("onArrival", agentScript)
		if err := home.AddAPO(agentName(a), b.MustBuild()); err != nil {
			return nil, fmt.Errorf("chaos: install %s: %w", agentName(a), err)
		}
	}
	for i, s := range h.sites {
		if err := s.PersistAll(); err != nil {
			return nil, fmt.Errorf("chaos: persist %s: %w", h.names[i], err)
		}
	}
	// Installed after PersistAll on purpose: see dlockName.
	for i := range h.sites {
		if err := h.installDlock(i); err != nil {
			return nil, err
		}
	}
	return h, nil
}

// installDlock installs site i's deadlock-churn lock: a Serialized APO
// whose "cycle" method closes a cross-site admission cycle with a partner
// site, with the admission-timeout backstop the invariant forbids firing.
// Under SabotageDeadlockBlind the Serialized option is withheld.
func (h *harness) installDlock(i int) error {
	s := h.sites[i]
	var opts []core.BuildOption
	if !h.cfg.SabotageDeadlockBlind {
		opts = []core.BuildOption{core.Serialized(), core.AdmissionTimeout(dlockBackstop)}
	}
	b := s.NewAPOBuilder("ChaosDlock", opts...)
	cycle, err := s.Behaviors().Lookup(behaviorCycle)
	if err != nil {
		return fmt.Errorf("chaos: dlock at %s: %w", h.names[i], err)
	}
	enter, err := s.Behaviors().Lookup(behaviorEnter)
	if err != nil {
		return fmt.Errorf("chaos: dlock at %s: %w", h.names[i], err)
	}
	b.FixedMethod("cycle", cycle)
	b.FixedMethod("enter", enter)
	if err := s.AddAPO(dlockName, b.MustBuild()); err != nil {
		return fmt.Errorf("chaos: dlock at %s: %w", h.names[i], err)
	}
	return nil
}

// newSite builds (or rebuilds, after a crash) site i over its store, with
// the chaos behaviors registered before anything can be materialized from
// an image. Every connection the site will ever dial goes through the
// FaultNet, so partitions and armed drops survive internal redials.
func (h *harness) newSite(i int) (*hadas.Site, core.Body, error) {
	name := h.names[i]
	s, err := hadas.NewSite(hadas.Config{
		Name:  name,
		Store: h.stores[i],
		Dial: func(addr string) (transport.Conn, error) {
			return h.fnet.DialFrom(name, addr)
		},
		CallTimeout: 10 * time.Second,
		Resilience: transport.ResilientPolicy{
			MaxAttempts:      3,
			BaseBackoff:      time.Millisecond,
			MaxBackoff:       10 * time.Millisecond,
			FailureThreshold: 3,
			Cooldown:         15 * time.Millisecond,
		},
	})
	if err != nil {
		return nil, nil, fmt.Errorf("chaos: site %s: %w", name, err)
	}
	addBody := h.registerBehaviors(s)
	if err := s.ServeInProc(h.fnet.Inner()); err != nil {
		s.Close()
		return nil, nil, fmt.Errorf("chaos: serve %s: %w", name, err)
	}
	return s, addBody, nil
}

// registerBehaviors installs the chaos behaviors on a site: the counter
// increment, and the deadlock-churn cycle/enter pair. The increment is
// serialized per object and persisted before the ack; a persist failure
// rolls the in-memory value back so an unacknowledged increment can never
// survive into a restart.
func (h *harness) registerBehaviors(s *hadas.Site) core.Body {
	s.Behaviors().Register(behaviorEnter, func(*core.Invocation, []value.Value) (value.Value, error) {
		return value.NewString("held"), nil
	})
	s.Behaviors().Register(behaviorCycle, func(inv *core.Invocation, args []value.Value) (value.Value, error) {
		if len(args) < 2 {
			return value.Null, fmt.Errorf("chaos: cycle wants (peer, key)")
		}
		peer, key := args[0].String(), args[1].String()
		// Rendezvous with the partner chain: past this point both chains
		// hold their local dlock admission, so the cross calls below
		// necessarily interlock.
		if barAny, ok := h.barriers.Load(key); ok {
			bar := barAny.(*sync.WaitGroup)
			bar.Done()
			bar.Wait()
		}
		return s.InvokeRemoteFrom(inv, peer, inv.Self().Principal(), dlockName, "enter")
	})
	return s.Behaviors().Register(behaviorAdd, func(inv *core.Invocation, args []value.Value) (value.Value, error) {
		self := inv.Self()
		muAny, _ := h.objLocks.LoadOrStore(self.ID().String(), &sync.Mutex{})
		mu := muAny.(*sync.Mutex)
		mu.Lock()
		defer mu.Unlock()
		cur, err := self.Get(self.Principal(), "count")
		if err != nil {
			return value.Null, err
		}
		n, _ := cur.Int()
		if err := self.Set(self.Principal(), "count", value.NewInt(n+1)); err != nil {
			return value.Null, err
		}
		if site, ok := self.Resolver().(*hadas.Site); ok && site.Store() != nil {
			if err := persist.SaveObject(site.Store(), self); err != nil {
				_ = self.Set(self.Principal(), "count", value.NewInt(n))
				return value.Null, err
			}
		}
		return value.NewInt(n + 1), nil
	})
}

// installHome populates site i's Home: its counter and its exportable
// service APO.
func (h *harness) installHome(i int, addBody core.Body) error {
	s := h.sites[i]
	cb := s.NewAPOBuilder("ChaosCounter")
	cb.ExtData("count", value.NewInt(0))
	cb.FixedMethod("add", addBody)
	if err := s.AddAPO(counterName(h.names[i]), cb.MustBuild()); err != nil {
		return fmt.Errorf("chaos: counter at %s: %w", h.names[i], err)
	}
	sb := s.NewAPOBuilder("ChaosSvc")
	sb.FixedScriptMethod("status", fmt.Sprintf(`fn() { return %q; }`, h.names[i]+"-live"))
	if err := s.AddAPO("svc", sb.MustBuild()); err != nil {
		return fmt.Errorf("chaos: svc at %s: %w", h.names[i], err)
	}
	return nil
}

func (h *harness) close() {
	for _, s := range h.sites {
		if s != nil {
			s.Close()
		}
	}
	// Release the backends last: sites write checkpoints while closing.
	// MemStore.Close is a no-op, so simulated restarts mid-run are
	// unaffected; WAL stores free their handles here.
	for _, st := range h.stores {
		if st != nil {
			st.Close()
		}
	}
}

// ---- epoch phases ----

// applyStart lands the epoch's opening faults on a quiet mesh: symmetric
// partitions and armed response-drops on the dispatch verb.
func (h *harness) applyStart(plan epochPlan) {
	for _, p := range plan.cuts {
		h.fnet.Cut(h.names[p[0]], h.names[p[1]])
	}
	for _, p := range plan.drops {
		h.dropArm[p].Add(1)
	}
}

// runWorkload drives one epoch of concurrent churn: counter clients,
// agent journeys and an ambassador rewrite race each other while the
// mid-epoch faults (more cuts, a site crash) land from this goroutine.
func (h *harness) runWorkload(e int, plan epochPlan) {
	var wg sync.WaitGroup
	for c := 0; c < h.cfg.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			h.runClient(e, c)
		}(c)
	}
	for a, itin := range plan.journeys {
		if len(itin) == 0 {
			continue
		}
		wg.Add(1)
		go func(a int, itin []int) {
			defer wg.Done()
			h.runJourney(a, itin)
		}(a, itin)
	}
	if plan.rewrite >= 0 {
		wg.Add(1)
		go func(o int) {
			defer wg.Done()
			h.rewriteOp(o)
		}(plan.rewrite)
	}
	pairs := plan.effectiveDlocks()
	outcomes := make([][2]error, len(pairs))
	h.dlocksInjected += int64(len(pairs))
	for k, pr := range pairs {
		wg.Add(1)
		go func(k int, pr [2]int) {
			defer wg.Done()
			h.runDeadlockPair(e, k, pr, &outcomes[k])
		}(k, pr)
	}
	for _, p := range plan.midCuts {
		h.fnet.Cut(h.names[p[0]], h.names[p[1]])
	}
	if plan.crash >= 0 {
		h.sites[plan.crash].Close()
		h.down[plan.crash] = true
	}
	wg.Wait()
	// Judge the pairs only after every goroutine has drained, in schedule
	// order, so the transcript stays byte-identical across same-seed runs.
	for k, pr := range pairs {
		h.judgeDeadlockPair(e, pr, outcomes[k])
	}
}

// runDeadlockPair drives one injected cycle: both sites' dlocks are
// invoked concurrently, each chain admits its local lock, the two
// rendezvous, then each calls into the other's lock. Results land in out
// by slot (0: pr[0]'s chain, 1: pr[1]'s chain).
func (h *harness) runDeadlockPair(e, k int, pr [2]int, out *[2]error) {
	key := fmt.Sprintf("dl-e%d-p%d", e, k)
	bar := &sync.WaitGroup{}
	bar.Add(2)
	h.barriers.Store(key, bar)
	defer h.barriers.Delete(key)
	var wg sync.WaitGroup
	for slot := 0; slot < 2; slot++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			from, to := pr[slot], pr[1-slot]
			obj, err := h.sites[from].APO(dlockName)
			if err != nil {
				bar.Done() // release the partner; the judge flags the miss
				out[slot] = err
				return
			}
			start := time.Now()
			_, err = obj.Invoke(obj.Principal(), "cycle",
				value.NewString(h.names[to]), value.NewString(key))
			h.record(start, err)
			out[slot] = err
		}(slot)
	}
	wg.Wait()
}

// judgeDeadlockPair asserts the deadlock invariant for one injected
// cycle: the probes must have broken it — exactly one chain failed
// ErrDeadlock, the other completed, and the admission-timeout backstop
// stayed silent.
func (h *harness) judgeDeadlockPair(e int, pr [2]int, errs [2]error) {
	for slot := range errs {
		if errors.Is(errs[slot], core.ErrAdmissionTimeout) {
			h.violate(e, "dlock s%d-s%d: admission-timeout backstop fired at s%d instead of probe detection",
				pr[0], pr[1], pr[slot])
			return
		}
	}
	va, vb := errors.Is(errs[0], core.ErrDeadlock), errors.Is(errs[1], core.ErrDeadlock)
	switch {
	case va && !vb && errs[1] == nil:
		h.dlocksResolved++
		h.emit(fmt.Sprintf("epoch %d: dlock s%d-s%d: cycle resolved, victim s%d", e, pr[0], pr[1], pr[0]))
	case vb && !va && errs[0] == nil:
		h.dlocksResolved++
		h.emit(fmt.Sprintf("epoch %d: dlock s%d-s%d: cycle resolved, victim s%d", e, pr[0], pr[1], pr[1]))
	default:
		h.violate(e, "dlock s%d-s%d: want exactly one ErrDeadlock victim and one success, got [%v / %v]",
			pr[0], pr[1], errs[0], errs[1])
	}
}

// runClient fires OpsPerClient remote counter increments from random
// origins at random targets. The op stream is drawn from a sub-seed of
// (seed, epoch, client) so the load pattern is as reproducible as the
// fault schedule; outcomes of course depend on where the faults land.
func (h *harness) runClient(e, c int) {
	rng := rand.New(rand.NewSource(h.cfg.Seed*1_000_003 + int64(e)*8191 + int64(c)*131 + 17))
	for op := 0; op < h.cfg.OpsPerClient; op++ {
		origin := rng.Intn(h.cfg.Sites)
		target := rng.Intn(h.cfg.Sites - 1)
		if target >= origin {
			target++
		}
		caller := security.Principal{
			Object: h.sites[origin].Generator().New(),
			Domain: h.names[origin],
		}
		start := time.Now()
		_, err := h.sites[origin].InvokeRemote(h.names[target], caller,
			counterName(h.names[target]), "add")
		if err == nil {
			// The invoke verb is never retried by the resilient transport,
			// so one ack is one applied increment — the ledger the counter
			// invariant is checked against.
			h.acked[target].Add(1)
		}
		h.record(start, err)
	}
}

// runJourney launches one agent's loop-home itinerary from wherever the
// agent currently rests. The launch is a single dispatch; the rest of the
// journey chains through each host's IOO inside onArrival.
func (h *harness) runJourney(a int, itin []int) {
	name := agentName(a)
	host := -1
	for i, s := range h.sites {
		if _, err := s.APO(name); err == nil {
			host = i
			break
		}
	}
	if host < 0 {
		return // mid-recovery; the invariant check will find a real loss
	}
	// Drop hops that would dispatch the agent to the site it is already
	// on — a site cannot link to itself.
	hops := make([]int, 0, len(itin))
	cur := host
	for _, next := range itin {
		if next != cur {
			hops = append(hops, next)
			cur = next
		}
	}
	if len(hops) == 0 {
		return
	}
	obj, err := h.sites[host].APO(name)
	if err != nil {
		return
	}
	rest := make([]value.Value, 0, len(hops)-1)
	for _, idx := range hops[1:] {
		rest = append(rest, value.NewString(h.names[idx]))
	}
	if err := obj.Set(obj.Principal(), "itinerary", value.NewList(rest)); err != nil {
		return
	}
	start := time.Now()
	_, err = h.sites[host].DispatchAgent(name, h.names[hops[0]])
	h.record(start, err)
}

// rewriteOp rewrites every deployed ambassador of origin o in place — the
// §5 database-shutdown move: a meta-level invoke interceptor that answers
// a versioned marker instead of relaying, installed through the origin's
// UpdateAmbassadors fan-out while the mesh is under fault.
func (h *harness) rewriteOp(o int) {
	h.ambVersion[o]++
	start := time.Now()
	_, err := h.applyRewrite(o, h.ambVersion[o])
	h.record(start, err)
}

func (h *harness) applyRewrite(o, version int) (int, error) {
	script := fmt.Sprintf(`fn(name, callArgs) {
		if name == "deleteMethod" || name == "setMethod" {
			return self.invokeNext(name, callArgs);
		}
		return %q;
	}`, marker(h.names[o], version))
	return h.sites[o].UpdateAmbassadors("svc", "setMethod",
		value.NewString("invoke"),
		value.NewMap(map[string]value.Value{"body": value.NewString(script)}))
}

// heal lifts every fault, restarts crashed sites over their stores, and
// drives every circuit breaker closed before the quiescence checks run.
func (h *harness) heal(e int) {
	h.fnet.HealAll()
	for _, arm := range h.dropArm {
		arm.Store(0)
	}
	var restarted []int
	for i := range h.sites {
		if h.down[i] {
			h.restart(e, i)
			restarted = append(restarted, i)
		}
	}
	// migration.status is a retry-safe verb: repeated probes walk each
	// open breaker through half-open back to closed. Every ordered pair
	// must answer before the epoch's invariants are judged — a pair that
	// cannot heal with all faults lifted is itself a violation.
	deadline := time.Now().Add(15 * time.Second)
	for {
		allUp := true
		for i := range h.sites {
			for j := range h.sites {
				if i == j {
					continue
				}
				if _, err := h.sites[i].MigrationStatusAt(h.names[j], "chaos-probe"); err != nil {
					allUp = false
				}
			}
		}
		if allUp {
			break
		}
		if time.Now().After(deadline) {
			h.violate(e, "peer mesh failed to heal after all faults were lifted")
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	for _, i := range restarted {
		if _, err := h.sites[i].BootstrapHome(); err != nil && !errors.Is(err, persist.ErrNoSlot) {
			h.violate(e, "bootstrap %s after restart: %v", h.names[i], err)
		}
		// The dlock is never in the persisted manifest (an Image cannot
		// carry its Serialized admission), so the reborn site gets a fresh
		// one — losing it silently would turn later injected cycles into
		// ordinary calls and void the deadlock invariant.
		if err := h.installDlock(i); err != nil {
			h.violate(e, "reinstall dlock at %s: %v", h.names[i], err)
		}
		// Re-exchange service ambassadors: the reborn site lost its hosted
		// ambassadors, and every other host must refresh its deployment
		// row at the reborn origin (re-import replaces rather than
		// accumulates rows).
		for j := range h.sites {
			if j == i {
				continue
			}
			h.reimport(e, j, i)
			h.reimport(e, i, j)
		}
	}
}

// restart rebuilds a crashed site over the same persist store — the same
// startup sequence hadasd runs — and re-links it to the mesh.
func (h *harness) restart(e, i int) {
	h.sites[i].Close()
	s, _, err := h.newSite(i)
	if err != nil {
		h.violate(e, "restart %s: %v", h.names[i], err)
		return
	}
	h.sites[i] = s
	h.down[i] = false
	for j := range h.names {
		if j == i {
			continue
		}
		if _, err := s.Link(h.names[j]); err != nil {
			h.violate(e, "restart %s: relink %s: %v", h.names[i], h.names[j], err)
		}
	}
}

func (h *harness) reimport(e, host, origin int) {
	var err error
	for attempt := 0; attempt < 5; attempt++ {
		if _, err = h.sites[host].Import(h.names[origin], "svc"); err == nil {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	h.violate(e, "re-import svc@%s at %s: %v", h.names[origin], h.names[host], err)
}

// quiesce resolves every journaled migration: with the mesh healed, no
// record may stay IN-DOUBT — that is itself one of the global invariants.
func (h *harness) quiesce(e int) {
	deadline := time.Now().Add(15 * time.Second)
	for {
		pending := 0
		for _, s := range h.sites {
			if _, err := s.ResolveMigrations(); err != nil {
				pending++
				continue
			}
			pending += len(s.InDoubtMigrations())
		}
		if pending == 0 {
			return
		}
		if time.Now().After(deadline) {
			h.violate(e, "migrations still in doubt with every destination reachable")
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// reapplyRewrites converges every origin's ambassadors on its latest
// rewrite: a mid-epoch fan-out may have missed partitioned or crashed
// hosts, and a re-imported ambassador is born a plain relay. Idempotent —
// setMethod replaces the interceptor.
func (h *harness) reapplyRewrites(e int) {
	for o := range h.sites {
		if h.ambVersion[o] == 0 {
			continue
		}
		var err error
		for attempt := 0; attempt < 3; attempt++ {
			if _, err = h.applyRewrite(o, h.ambVersion[o]); err == nil {
				break
			}
			time.Sleep(2 * time.Millisecond)
		}
		if err != nil {
			h.violate(e, "ambassador rewrite at %s failed to converge: %v", h.names[o], err)
		}
	}
}

// sabotage deliberately breaks an invariant in the final epoch when a
// seam is enabled — the checker's own test fixture.
func (h *harness) sabotage(e int) {
	if e != h.cfg.Epochs-1 {
		return
	}
	if h.cfg.SabotageDuplicateAgent {
		name := agentName(0)
		for i, s := range h.sites {
			obj, err := s.APO(name)
			if err != nil {
				continue
			}
			img, err := obj.Snapshot()
			if err != nil {
				break
			}
			other := h.sites[(i+1)%len(h.sites)]
			clone, err := core.FromImage(img, other.Behaviors())
			if err != nil {
				break
			}
			_ = other.AddAPO(name, clone)
			break
		}
	}
	if h.cfg.SabotageCounterDrift {
		obj, err := h.sites[0].APO(counterName(h.names[0]))
		if err == nil {
			if cur, err := obj.Get(obj.Principal(), "count"); err == nil {
				n, _ := cur.Int()
				_ = obj.Set(obj.Principal(), "count", value.NewInt(n+1))
			}
		}
	}
}

// ---- invariants ----

// checkEpoch asserts the global invariants at a quiescence point.
func (h *harness) checkEpoch(e int) {
	before := len(h.violations)

	// Exactly one live copy per agent, and the departed-record trace from
	// the agent's birth site must locate that copy.
	for a := 0; a < h.cfg.Agents; a++ {
		name := agentName(a)
		var hosts []int
		for i, s := range h.sites {
			if _, err := s.APO(name); err == nil {
				hosts = append(hosts, i)
			}
		}
		if len(hosts) != 1 {
			h.violate(e, "%s has %d live copies (want exactly 1)", name, len(hosts))
			continue
		}
		// The operator's agent-location workflow, from a rotating observer:
		// one fan-out round of hadas.migration.status, stitched from birth.
		obs := h.sites[(a+e+1)%len(h.sites)]
		path, st, err := obs.TraceAgent(h.names[a%h.cfg.Sites], name)
		switch traced := path[len(path)-1]; {
		case err != nil:
			h.violate(e, "%s itinerary trace: %v", name, err)
		case st.State != hadas.AgentStatusResident:
			h.violate(e, "%s trace broke at %s: state %q", name, traced, st.State)
		case traced != h.names[hosts[0]]:
			h.violate(e, "%s trace ends at %s but the live copy is at %s",
				name, traced, h.names[hosts[0]])
		}
	}

	// Counter value == acknowledged increments: invocation effects are
	// neither lost (crash after ack) nor duplicated (transport retry).
	for i := range h.sites {
		obj, err := h.sites[i].APO(counterName(h.names[i]))
		if err != nil {
			h.violate(e, "counter at %s missing: %v", h.names[i], err)
			continue
		}
		v, err := obj.Get(obj.Principal(), "count")
		if err != nil {
			h.violate(e, "counter at %s unreadable: %v", h.names[i], err)
			continue
		}
		n, _ := v.Int()
		if want := h.acked[i].Load(); n != want {
			h.violate(e, "counter at %s = %d but %d increments were acked", h.names[i], n, want)
		}
	}

	// Every host's ambassador answers the origin's latest state: the
	// pristine relay of a live origin, or the newest rewrite marker.
	for o := range h.sites {
		want := h.names[o] + "-live"
		if v := h.ambVersion[o]; v > 0 {
			want = marker(h.names[o], v)
		}
		for j := range h.sites {
			if j == o {
				continue
			}
			amb, err := h.sites[j].ResolveObject("svc@" + h.names[o])
			if err != nil {
				h.violate(e, "ambassador svc@%s missing at %s: %v", h.names[o], h.names[j], err)
				continue
			}
			caller := security.Principal{
				Object: h.sites[j].Generator().New(),
				Domain: h.names[j],
			}
			got, err := amb.Invoke(caller, "status")
			if err != nil {
				h.violate(e, "ambassador svc@%s at %s: %v", h.names[o], h.names[j], err)
			} else if got.String() != want {
				h.violate(e, "ambassador svc@%s at %s answers %q, want %q",
					h.names[o], h.names[j], got.String(), want)
			}
		}
	}

	// Journal hygiene: with the mesh healed nothing may be orphaned.
	for i := range h.sites {
		for _, info := range h.sites[i].OrphanedMigrations() {
			h.violate(e, "orphaned migration at %s: %s %s→%s after %d attempts",
				h.names[i], info.Name, h.names[i], info.Dest, info.Attempts)
		}
	}

	if len(h.violations) == before {
		h.emit(fmt.Sprintf("epoch %d: invariants ok (agents=%d counters=%d ambassadors=%d)",
			e, h.cfg.Agents, h.cfg.Sites, h.cfg.Sites*(h.cfg.Sites-1)))
	}
}

// ---- recording ----

func (h *harness) record(start time.Time, err error) {
	d := time.Since(start)
	h.opMu.Lock()
	h.classes[classify(err)]++
	h.lats = append(h.lats, d)
	h.opMu.Unlock()
}

func classify(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, hadas.ErrPeerDown), errors.Is(err, transport.ErrCircuitOpen):
		return "peer_down"
	case errors.Is(err, transport.ErrInjected):
		return "partitioned"
	case errors.Is(err, transport.ErrClosed):
		return "conn_closed"
	case errors.Is(err, hadas.ErrMigrationInDoubt):
		return "in_doubt"
	case errors.Is(err, hadas.ErrAgentMigrating):
		return "migrating"
	case errors.Is(err, core.ErrDeadlock):
		return "deadlock"
	case errors.Is(err, core.ErrAdmissionTimeout):
		return "admission_timeout"
	case errors.Is(err, context.DeadlineExceeded):
		return "timeout"
	default:
		return "other"
	}
}

func (h *harness) violate(e int, format string, args ...any) {
	msg := fmt.Sprintf("epoch %d: VIOLATION: %s", e, fmt.Sprintf(format, args...))
	h.violations = append(h.violations, msg)
	h.emit(msg)
}

func (h *harness) emit(line string) {
	h.transcript = append(h.transcript, line)
	if h.cfg.Transcript != nil {
		fmt.Fprintln(h.cfg.Transcript, line)
	}
}
