package hadas

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
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

// The journal model (DESIGN.md §9): the migration protocol driven over a
// store that counts durability barriers and can kill its site after the
// k-th, so every interleaving of "which barriers made it to disk" is one
// loop away. A site that died writes nothing more, sends nothing more,
// hears no reply and runs no arrival handler; the others carry on. After
// every step the dead are restarted over their stores, every journal is
// resolved, and the federation is held to what the chaos gate asserts per
// epoch: one live copy of every agent, found by the status trace from its
// birth site; no migration left in doubt; onArrival once per landing; and
// the live copy carries what its journey gathered — every landing bumps a
// counter, and no copy may be older than an image some landing read. Two
// more hold the destination's table to the acknowledgements it received: a
// migration its origin still holds unresolved is never answered "unknown"
// once the agent landed, and a record a dispatch acknowledged, that nothing
// is replayed from and that is not its name's youngest, has left.

var errCrashed = errors.New("site crashed")

// crashStore is a site's disk in the model: a MemStore whose every write
// is one barrier — applied whole or, once the site is dead, not at all.
type crashStore struct {
	*persist.MemStore
	mu       sync.Mutex
	barriers int  // barriers counted
	crashAt  int  // the site dies once this many are counted; 0 never
	lose     bool // the barrier it dies at is lost instead of applied
	dead     bool // later writes are dropped
	// landed names the agent of every arrival record a remote dispatch
	// journaled here, by slot: the table lets records go, the count of
	// landings stays.
	landed map[string]string
}

func (c *crashStore) barrier(apply func() error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead {
		return errCrashed
	}
	c.barriers++
	c.dead = c.barriers == c.crashAt
	if c.dead && c.lose {
		return errCrashed
	}
	return apply()
}

// noteLanding records an arrival slot's first journaled write (mu held).
func (c *crashStore) noteLanding(slot string, data []byte) {
	if _, seen := c.landed[slot]; seen || data == nil || !strings.HasPrefix(slot, arrivalSlotPrefix) {
		return
	}
	if a, err := decodeArrival(data); err == nil && a.from != "" {
		c.landed[slot] = a.name
	}
}

func (c *crashStore) Put(slot string, data []byte) error {
	return c.barrier(func() error {
		c.noteLanding(slot, data)
		return c.MemStore.Put(slot, data)
	})
}
func (c *crashStore) Delete(slot string) error {
	return c.barrier(func() error { return c.MemStore.Delete(slot) })
}
func (c *crashStore) PutAll(batch map[string][]byte) error {
	return c.barrier(func() error {
		for slot, data := range batch {
			c.noteLanding(slot, data)
		}
		return c.MemStore.PutAll(batch)
	})
}

// landings counts the arrival records journaled here, by agent.
func (c *crashStore) landings() map[string]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := map[string]int{}
	for _, agent := range c.landed {
		out[agent]++
	}
	return out
}

func (c *crashStore) hasLanded(mid string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.landed[arrivalSlot(mid)]
	return ok
}
func (c *crashStore) Sync() error { return c.barrier(c.MemStore.Sync) }

// crashAfter arms the store: the site dies when k more barriers are
// applied; 0 calls a death that has not come off.
func (c *crashStore) crashAfter(k int) {
	c.mu.Lock()
	c.crashAt = 0
	if k > 0 {
		c.crashAt = c.barriers + k
	}
	c.mu.Unlock()
}

// restart is the disk after a reboot: everything applied, nothing armed.
func (c *crashStore) restart() {
	c.mu.Lock()
	c.dead, c.crashAt, c.lose = false, 0, false
	c.mu.Unlock()
}

func (c *crashStore) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.barriers
}

func (c *crashStore) isDead() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dead
}

// crashConn is a wire either end of which may be dead: nothing leaves a
// dead site, nothing reaches one, and a reply that crosses a death is lost.
// sent sees every request that goes out.
type crashConn struct {
	transport.Conn
	cut  func() bool
	sent func(verb string, payload []byte)
}

func (c *crashConn) Call(ctx context.Context, verb string, payload []byte) ([]byte, error) {
	if c.cut() {
		return nil, errCrashed
	}
	c.sent(verb, payload)
	out, err := c.Conn.Call(ctx, verb, payload)
	if c.cut() {
		return nil, errCrashed
	}
	return out, err
}

func (c *crashConn) Ping(ctx context.Context) error {
	if c.cut() {
		return errCrashed
	}
	return c.Conn.Ping(ctx)
}

const modelArrive = "model.onArrival"

// journalModel is a full mesh of sites over crashStores plus what the
// checks need to know from outside the system under test.
type journalModel struct {
	t      *testing.T
	net    *transport.InProcNet
	names  []string
	stores map[string]*crashStore
	sites  map[string]*Site
	agents map[string]string // agent → birth site

	mu       sync.Mutex
	runs     map[[2]string]int // {site, agent} → onArrival runs
	cuts     map[string]int    // site → deaths so far
	gathered map[string]int64  // agent → highest landings count an onArrival read
	// acked is, by {destination, origin}, the highest Acked a dispatch
	// delivered to the destination's running incarnation.
	acked map[[2]string]int64
}

func newJournalModel(t *testing.T, cfg Config, names ...string) *journalModel {
	m := &journalModel{
		t: t, net: transport.NewInProcNet(), names: names,
		stores: map[string]*crashStore{}, sites: map[string]*Site{}, agents: map[string]string{},
		runs: map[[2]string]int{}, cuts: map[string]int{}, gathered: map[string]int64{},
		acked: map[[2]string]int64{},
	}
	for _, n := range names {
		m.stores[n] = &crashStore{MemStore: persist.NewMemStore(), landed: map[string]string{}}
	}
	for _, n := range names {
		m.start(n, cfg)
	}
	for _, n := range names {
		m.linkAll(n)
	}
	return m
}

// close ends a model: every site still up is held to Home ≡ registry.
func (m *journalModel) close() {
	for _, s := range m.sites {
		homeAgreesWithRegistry(m.t, s)
		s.Close()
	}
}

func (m *journalModel) start(name string, cfg Config) {
	cfg.Name, cfg.Store, cfg.Resilience = name, m.stores[name], migPolicy()
	cfg.Dial = func(addr string) (transport.Conn, error) {
		inner, err := m.net.Dial(addr)
		if err != nil {
			return nil, err
		}
		return &crashConn{Conn: inner, cut: func() bool {
			return m.stores[name].isDead() || m.stores[addr].isDead()
		}, sent: func(verb string, payload []byte) {
			var req dispatchReq
			if verb != verbDispatch || wire.DecodeRecord(payload, req.Fields) != nil {
				return
			}
			m.mu.Lock()
			k := [2]string{addr, name}
			m.acked[k] = max(m.acked[k], req.Acked)
			m.mu.Unlock()
		}}, nil
	}
	m.mu.Lock()
	// A restarted destination forgets what it heard; a restarted origin
	// numbers afresh above what it still holds pending, so a record it
	// sends later may lie below an ack of its last incarnation.
	for k := range m.acked {
		if k[0] == name || k[1] == name {
			delete(m.acked, k)
		}
	}
	m.mu.Unlock()
	s, err := NewSite(cfg)
	if err != nil {
		m.t.Fatal(err)
	}
	// onArrival counts itself, bumps the agent's landings and, when the
	// agent carries a next stop, chains the journey onward from inside the
	// handler.
	s.Behaviors().Register(modelArrive, func(inv *core.Invocation, args []value.Value) (value.Value, error) {
		if m.stores[name].isDead() {
			return value.Null, errCrashed
		}
		hop, _ := args[0].Map()
		agent, self := hop["agent"].String(), inv.Self()
		lv, err := self.Get(self.Principal(), "landings")
		if err != nil {
			return value.Null, err
		}
		landings, _ := lv.Int()
		m.mu.Lock()
		m.runs[[2]string{name, agent}]++
		m.gathered[agent] = max(m.gathered[agent], landings)
		m.mu.Unlock()
		if err := self.Set(self.Principal(), "landings", value.NewInt(landings+1)); err != nil {
			return value.Null, err
		}
		next, err := self.Get(self.Principal(), "next")
		if err != nil || next.String() == "" {
			return value.NewString(name), err
		}
		if err := self.Set(self.Principal(), "next", value.NewString("")); err != nil {
			return value.Null, err
		}
		return s.DispatchAgent(agent, next.String())
	})
	if err := s.ServeInProc(m.net); err != nil {
		m.t.Fatal(err)
	}
	m.sites[name] = s
}

func (m *journalModel) linkAll(name string) {
	for _, p := range m.names {
		if p != name {
			link(m.t, m.sites[name], p)
		}
	}
}

// addAgent builds an agent at its birth site.
func (m *journalModel) addAgent(name, birth string) {
	s := m.sites[birth]
	body, err := s.Behaviors().Lookup(modelArrive)
	if err != nil {
		m.t.Fatal(err)
	}
	b := s.NewAPOBuilder("ModelAgent")
	b.ExtData("next", value.NewString(""))
	b.ExtData("landings", value.NewInt(0))
	b.FixedMethod(onArrivalMethod, body)
	if err := s.AddAPO(name, b.MustBuild()); err != nil {
		m.t.Fatal(err)
	}
	m.agents[name] = birth
}

// host returns the site an agent lives at ("" when it is not exactly one).
func (m *journalModel) host(agent string) string {
	at := ""
	for _, n := range m.names {
		if _, err := m.sites[n].APO(agent); err == nil {
			if at != "" {
				return ""
			}
			at = n
		}
	}
	return at
}

// dispatch sends an agent from wherever it lives to dest, through bounce
// first when that is set. Errors are the crash's business, not the test's.
func (m *journalModel) dispatch(agent, dest, bounce string) {
	from := m.host(agent)
	if from == "" {
		return
	}
	first := dest
	if bounce != "" && bounce != from && bounce != dest {
		obj, _ := m.sites[from].APO(agent)
		if err := obj.Set(obj.Principal(), "next", value.NewString(dest)); err != nil {
			m.t.Fatal(err)
		}
		first = bounce
	}
	if first != from {
		_, _ = m.sites[from].DispatchAgent(agent, first)
	}
}

// recover restarts the given sites (and any dead one) over their stores —
// close, rebuild, relink, BootstrapHome — then resolves every journal
// until nothing is in doubt.
func (m *journalModel) recover(restart ...string) error {
	again := map[string]bool{}
	for _, n := range restart {
		again[n] = true
	}
	for _, n := range m.names {
		if m.stores[n].isDead() {
			again[n] = true
			m.cuts[n]++
		}
	}
	for n := range again {
		cfg := m.sites[n].cfg
		m.sites[n].Close()
		m.stores[n].restart()
		m.start(n, cfg)
	}
	for n := range again {
		m.linkAll(n)
	}
	for n := range again {
		if _, err := m.sites[n].BootstrapHome(); err != nil && !errors.Is(err, persist.ErrNoSlot) {
			return fmt.Errorf("bootstrap %s: %w", n, err)
		}
	}
	for round := 0; round < 4; round++ {
		pending := 0
		for _, n := range m.names {
			if _, err := m.sites[n].ResolveMigrations(); err != nil {
				return fmt.Errorf("resolve at %s: %w", n, err)
			}
			pending += len(m.sites[n].InDoubtMigrations())
		}
		if pending == 0 {
			return nil
		}
	}
	return errors.New("migrations still in doubt with every site up")
}

// check asserts the invariants at a quiescent point.
func (m *journalModel) check() error {
	for agent, birth := range m.agents {
		var hosts []string
		for _, n := range m.names {
			if _, err := m.sites[n].APO(agent); err == nil {
				hosts = append(hosts, n)
			}
		}
		if len(hosts) != 1 {
			return fmt.Errorf("%s has %d live copies %v", agent, len(hosts), hosts)
		}
		obj, _ := m.sites[hosts[0]].APO(agent)
		lv, err := obj.Get(obj.Principal(), "landings")
		if err != nil {
			return err
		}
		if landings, _ := lv.Int(); landings < m.gathered[agent] {
			return fmt.Errorf("%s at %s carries landings=%d, an older image than the %d a landing read",
				agent, hosts[0], landings, m.gathered[agent])
		}
		at := birth
		for hops := 0; ; hops++ {
			st := m.sites[at].AgentArrivalStatus(agent)
			if st.State == AgentStatusResident {
				break
			}
			if st.State != arrivalDeparted || st.Next == "" || hops > 64 {
				return fmt.Errorf("%s: trace from %s broke at %s: %+v", agent, birth, at, st)
			}
			at = st.Next
		}
		if at != hosts[0] {
			return fmt.Errorf("%s: trace ends at %s, the live copy is at %s", agent, at, hosts[0])
		}
	}
	for _, n := range m.names {
		if rep := m.sites[n].MigrationReport(); len(rep) > 0 {
			return fmt.Errorf("site %s: migration report %+v", n, rep)
		}
		// A landing is a journaled arrival record; its handler ran exactly
		// once, unless a death of this site fell between the two.
		landed := m.stores[n].landings()
		unrun := 0
		for agent := range m.agents {
			runs := m.runs[[2]string{n, agent}]
			if runs > landed[agent] {
				return fmt.Errorf("%s at %s: onArrival ran %d times for %d landings", agent, n, runs, landed[agent])
			}
			unrun += landed[agent] - runs
		}
		if unrun > m.cuts[n] {
			return fmt.Errorf("site %s: %d landings never ran onArrival, %d deaths", n, unrun, m.cuts[n])
		}
	}
	return m.checkAcked()
}

// checkAcked: a record that a delivered dispatch acknowledged, that nothing
// is replayed from and that is not its name's youngest has left the table.
func (m *journalModel) checkAcked() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for k, acked := range m.acked {
		s := m.sites[k[0]]
		s.arrMu.Lock()
		for name, recs := range s.arrByName {
			for _, a := range recs[:len(recs)-1] {
				if a.from == k[1] && a.num < acked && a.spent() {
					s.arrMu.Unlock()
					return fmt.Errorf("site %s kept %s's record %s of %s (%s, number %d) past its ack %d",
						k[0], k[1], a.mid, name, a.state, a.num, acked)
				}
			}
		}
		s.arrMu.Unlock()
	}
	return nil
}

// checkInDoubt: a destination asked about a migration its origin still
// holds unresolved does not answer "unknown" once the agent landed there.
func (m *journalModel) checkInDoubt() error {
	for _, n := range m.names {
		for _, rec := range m.sites[n].pendingMigrations() {
			if m.stores[rec.Dest].isDead() || !m.stores[rec.Dest].hasLanded(rec.MID) {
				continue
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			fields, err := m.sites[rec.Dest].handleMigrationStatus(ctx, &statusReq{Site: n, MID: rec.MID})
			cancel()
			var rep statusReply
			if err == nil {
				err = wire.DecodeRecord(wire.EncodeRecord(fields), rep.Fields)
			}
			if err != nil || rep.State == "unknown" {
				return fmt.Errorf("%s's unresolved migration %s of %s landed at %s, which answers %q (%v)",
					n, rec.MID, rec.Name, rec.Dest, rep.State, err)
			}
		}
	}
	return nil
}

// TestCrashAtEveryBarrier kills either site after every barrier of a
// one-way hop and of an A→B→A bounce — with and without a checkpoint
// naming the agent — restarts both, and checks the invariants. The loop
// leg bounces an agent that already landed at A once, so a death at A can
// leave its first arrival record live beside the one the journey came
// home with.
func TestCrashAtEveryBarrier(t *testing.T) {
	for _, journey := range []string{"hop", "bounce", "loop"} {
		for _, checkpointed := range []bool{false, true} {
			for _, victim := range []string{"a", "b"} {
				for k := 1; ; k++ {
					m := newJournalModel(t, Config{}, "a", "b")
					if journey == "loop" {
						m.addAgent("scout", "b")
						m.dispatch("scout", "a", "")
					} else {
						m.addAgent("scout", "a")
					}
					if checkpointed {
						if err := m.sites["a"].PersistAll(); err != nil {
							t.Fatal(err)
						}
					}
					m.stores[victim].crashAfter(k)
					if journey == "hop" {
						m.dispatch("scout", "b", "")
					} else {
						m.dispatch("scout", "a", "b")
					}
					if !m.stores[victim].isDead() {
						m.close()
						if want := map[string]int{"hop": 2, "bounce": 4, "loop": 4}[journey]; k != want+1 {
							t.Fatalf("%s: site %s made %d barriers, want %d", journey, victim, k-1, want)
						}
						break // the journey has fewer than k barriers at this site
					}
					err := m.recover("a", "b")
					if err == nil {
						err = m.check()
					}
					m.close()
					if err != nil {
						t.Fatalf("%s, checkpointed=%v, %s dies after its barrier %d: %v", journey, checkpointed, victim, k, err)
					}
				}
			}
		}
	}
}

// TestCrashLosesAckBatch: a destination dies at the barrier that was to
// carry an acknowledgement's journal deletes. The record the ack let go in
// memory replays, which is harmless, and the origin's next dispatch lets it
// go again.
func TestCrashLosesAckBatch(t *testing.T) {
	m := newJournalModel(t, Config{}, "a", "b")
	defer m.close()
	m.addAgent("scout", "a")
	m.dispatch("scout", "b", "")
	m.dispatch("scout", "a", "")
	first := arrivalSlots(t, m.sites["b"]) // scout's departed record
	m.stores["b"].lose = true
	m.stores["b"].crashAfter(1) // the installation that carries the ack
	m.dispatch("scout", "b", "")
	if !m.stores["b"].isDead() {
		t.Fatal("b survived the barrier it was to die at")
	}
	if err := m.recover(); err != nil {
		t.Fatal(err)
	}
	if err := m.check(); err != nil {
		t.Fatal(err)
	}
	if got := arrivalSlots(t, m.sites["b"]); !reflect.DeepEqual(got, first) {
		t.Fatalf("after the lost batch b journals %v, want the replayed %v", got, first)
	}
	m.dispatch("scout", "b", "")
	if err := m.check(); err != nil {
		t.Fatal(err)
	}
	if got := arrivalSlots(t, m.sites["b"]); len(got) != 1 || got[0] == first[0] {
		t.Errorf("b journals %v; the replayed %v should have gone", got, first)
	}
}

// modelOp is one step of a random history.
type modelOp struct {
	kind    string // dispatch | checkpoint | restart
	site    string // checkpoint, restart: where; dispatch: the destination
	agent   string
	bounce  string // dispatch: a stop on the way ("" none)
	victim  string // dispatch: the site that dies during it ("" none)
	barrier int    // … after this many more of its barriers
}

func (o modelOp) String() string {
	if o.kind != "dispatch" {
		return o.kind + " " + o.site
	}
	s := fmt.Sprintf("dispatch %s to %s", o.agent, o.site)
	if o.bounce != "" {
		s += " via " + o.bounce
	}
	if o.victim != "" {
		s += fmt.Sprintf(", %s dies after %d barriers", o.victim, o.barrier)
	}
	return s
}

// runHistory plays ops on a fresh three-site mesh with four agents and
// returns the first invariant violation.
func runHistory(t *testing.T, ops []modelOp) error {
	m := newJournalModel(t, Config{}, "a", "b", "c")
	defer m.close()
	for i := 0; i < 4; i++ {
		m.addAgent(fmt.Sprintf("agent-%d", i), m.names[i%3])
	}
	for _, n := range m.names { // what is born here is durable from the start
		if err := m.sites[n].PersistAll(); err != nil {
			t.Fatal(err)
		}
	}
	for i, op := range ops {
		var restart []string
		switch op.kind {
		case "dispatch":
			if op.victim != "" {
				m.stores[op.victim].crashAfter(op.barrier)
			}
			m.dispatch(op.agent, op.site, op.bounce)
			for _, st := range m.stores {
				st.crashAfter(0)
			}
			if err := m.checkInDoubt(); err != nil {
				return fmt.Errorf("step %d (%v): %w", i, op, err)
			}
		case "checkpoint":
			if err := m.sites[op.site].PersistAll(); err != nil {
				return fmt.Errorf("step %d (%v): %w", i, op, err)
			}
		case "restart":
			restart = []string{op.site}
		}
		err := m.recover(restart...)
		if err == nil {
			err = m.check()
		}
		if err != nil {
			return fmt.Errorf("step %d (%v): %w", i, op, err)
		}
	}
	return nil
}

// TestJournalModelRandomHistories: 200 seeded histories of dispatches
// (some through a second stop, some with a site dying at a random barrier),
// checkpoints and restarts, the invariants checked after every step. A
// failing history is shrunk to a minimal op list before it is reported.
func TestJournalModelRandomHistories(t *testing.T) {
	sites := []string{"a", "b", "c"}
	seeds := 200
	if testing.Short() {
		seeds = 40
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]modelOp, 24)
		for i := range ops {
			switch r := rng.Intn(10); {
			case r < 7:
				op := modelOp{kind: "dispatch", site: sites[rng.Intn(3)], agent: fmt.Sprintf("agent-%d", rng.Intn(4))}
				if rng.Intn(3) == 0 {
					op.bounce = sites[rng.Intn(3)]
				}
				if rng.Intn(2) == 0 {
					op.victim, op.barrier = sites[rng.Intn(3)], 1+rng.Intn(4)
				}
				ops[i] = op
			case r < 9:
				ops[i] = modelOp{kind: "checkpoint", site: sites[rng.Intn(3)]}
			default:
				ops[i] = modelOp{kind: "restart", site: sites[rng.Intn(3)]}
			}
		}
		err := runHistory(t, ops)
		if err == nil {
			continue
		}
		for shrunk := true; shrunk; { // drop every op the failure does not need
			shrunk = false
			for i := range ops {
				less := append(append([]modelOp(nil), ops[:i]...), ops[i+1:]...)
				if e := runHistory(t, less); e != nil {
					ops, err, shrunk = less, e, true
					break
				}
			}
		}
		var b strings.Builder
		for _, op := range ops {
			fmt.Fprintf(&b, "\n  %v", op)
		}
		t.Fatalf("seed %d: %v\nminimal history:%s", seed, err, b.String())
	}
}

// TestBarriersPerHop pins the protocol's price: four durability barriers
// per hop — PREPARE and commit at the origin, installed and done at the
// destination — with the dedup table at its cap or not, eight for a
// bounce, two for a dispatch that aborts.
func TestBarriersPerHop(t *testing.T) {
	m := newJournalModel(t, Config{MaxArrivalRecords: 2}, "a", "b")
	defer m.close()
	total := func() int { return m.stores["a"].count() + m.stores["b"].count() }
	m.addAgent("scout", "a")
	for hop := 0; hop < 8; hop++ { // the table is over its cap from the third hop on
		before, dest := total(), m.names[(hop+1)%2]
		m.dispatch("scout", dest, "")
		if m.host("scout") != dest {
			t.Fatalf("hop %d: scout is at %q", hop, m.host("scout"))
		}
		if got := total() - before; got != 4 {
			t.Errorf("hop %d: %d barriers, want 4", hop, got)
		}
		for _, n := range m.names {
			if recs := m.sites[n].ArrivalRecords(); len(recs) > 2 {
				t.Errorf("hop %d: %d arrival records at %s, cap 2", hop, len(recs), n)
			}
		}
	}
	before := total()
	m.dispatch("scout", "a", "b") // a → b → a
	if got := total() - before; got != 8 || m.host("scout") != "a" {
		t.Errorf("bounce: %d barriers, want 8 (scout at %q)", got, m.host("scout"))
	}

	// A definite refusal: b already holds the name. The failed arrival is
	// kept in memory only, so the two barriers are the origin's.
	inertAgent(t, m.sites["b"], "squatter")
	m.addAgent("squatter", "a")
	before, atB := m.stores["a"].count(), len(arrivalSlots(t, m.sites["b"]))
	if _, err := m.sites["a"].DispatchAgent("squatter", "b"); err == nil {
		t.Fatal("dispatch onto a taken name succeeded")
	}
	if got := m.stores["a"].count() - before; got != 2 {
		t.Errorf("aborted dispatch: %d barriers at the origin, want 2 (PREPARE, abort)", got)
	}
	if slots := journalMigrations(t, m.sites["a"]); len(slots) != 0 {
		t.Errorf("abort left %v", slots)
	}
	if got := len(arrivalSlots(t, m.sites["b"])); got > atB {
		t.Errorf("the refused arrival was journaled: %d → %d arrival slots", atB, got)
	}
}
