package hadas

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/naming"
	"repro/internal/transport"
	"repro/internal/value"
	"repro/internal/wire"
)

// This file implements the journaled two-phase agent-migration protocol.
// The paper's agents "exist in exactly one place" (§1, §5); a bare
// ship-and-deregister cannot guarantee that across crashes, retries and
// partitions, so migration state is reified (in the spirit of meta-data
// objects as the basis for evolution) and made durable:
//
// Origin (DispatchAgent):
//
//	PREPARE   journal {mid, name, dest, image} before retiring the agent
//	COMMIT    peer acknowledged installation → the agent lives there
//	ABORT     definite failure (peer answered with an error, or the call
//	          was never sent) → reinstate the local copy
//	IN-DOUBT  ambiguous transport failure (the peer may or may not have
//	          installed the agent) → resolved by the hadas.migration.status
//	          query instead of blindly reinstating
//
// Destination (handleDispatch):
//
//	a durable dedup table keyed by migration ID makes receipt idempotent —
//	a retried dispatch returns the recorded outcome, never double-installs
//	or re-runs onArrival — and installation is ACKed (recorded durably)
//	*before* onArrival runs, so an arrival handler's failure can no longer
//	resurrect the origin copy. A dispatch acks what its origin resolved.
//
// Recovery (BootstrapHome):
//
//	arrival records are replayed (agents that had landed are reinstalled),
//	and in-doubt PREPAREs are resolved against the peer (commit if the
//	agent landed, reinstate from the journaled image if not).

// ErrMigrationInDoubt reports a dispatch whose outcome is unknown: the
// transport failed ambiguously and the destination could not be queried.
// The agent is intentionally NOT reinstated — it may be alive at the
// destination — and the journaled record resolves the migration on the
// next ResolveMigrations/BootstrapHome (or manually via MigrationStatus).
var ErrMigrationInDoubt = errors.New("migration in doubt")

// ErrAgentMigrating reports a dispatch refused because another dispatch
// of the same agent is already in flight.
var ErrAgentMigrating = errors.New("agent migration already in flight")

// verbMigrationStatus is the status-query verb: the origin of an in-doubt
// migration asks the destination what became of a migration ID. It is a
// pure read, so it is retry-safe.
const verbMigrationStatus = "hadas.migration.status"

// Journal slot namespaces inside the site store. Slot names are opaque to
// persist.Store; the prefixes keep protocol state apart from object slots.
const (
	migrationSlotPrefix = "_migration/"
	arrivalSlotPrefix   = "_arrival/"
)

// Migration states recorded in the origin journal. Deleting the record is
// the outcome.
const (
	migrationPrepared = "prepared"
	migrationInDoubt  = "indoubt"
)

// Arrival states recorded in the destination dedup table.
const (
	arrivalPending   = "pending"   // in flight, not yet registered (memory only)
	arrivalInstalled = "installed" // registered and ACKed; onArrival may be running
	arrivalDone      = "done"      // onArrival finished (errMsg holds its error, if any)
	arrivalFailed    = "failed"    // installation failed; errMsg holds why
	arrivalDeparted  = "departed"  // landed here, then migrated onward
)

// migrationRecord is one origin-journal entry.
type migrationRecord struct {
	MID    string
	Name   string
	Dest   string
	State  string
	WasAPO bool
	Image  []byte // the agent's wire image, for reinstatement after a crash
	// Seq is the arrival-table watermark at PREPARE: records claimed later
	// are the agent coming back — an itinerary that loops home re-arrives
	// *during* the dispatch call — and survive this departure's marking,
	// in the live commit and in recovery's alike.
	Seq int64
	Num int64 // the migration's number at this site
	// Born is the PREPARE wall-clock time (UnixNano) and Attempts counts
	// failed resolution rounds; together they drive the orphan caps
	// (Config.MaxMigrationAge / MaxMigrationAttempts).
	Born     int64
	Attempts int64
	slot     string // built once by journalSlot; memory only
}

func (r *migrationRecord) Fields(c *wire.Codec) {
	c.Str("mid", &r.MID)
	c.Str("name", &r.Name)
	c.Str("dest", &r.Dest)
	c.Str("state", &r.State)
	c.Bool("wasAPO", &r.WasAPO)
	c.Bytes("image", &r.Image)
	c.Int("seq", &r.Seq)
	c.Int("num", &r.Num)
	c.Int("born", &r.Born)
	c.Int("tries", &r.Attempts)
}

func decodeMigrationRecord(raw []byte) (*migrationRecord, error) {
	r := new(migrationRecord)
	if err := wire.DecodeRecord(raw, r.Fields); err != nil {
		return r, err
	}
	return r, imageForm(r.Image)
}

// imageForm refuses a journaled image in a format from before records
// (DESIGN §9), without decoding it; a departed record carries none.
func imageForm(image []byte) error {
	if len(image) == 0 {
		return nil
	}
	return wire.RecordForm(image)
}

func migrationSlot(mid string) string { return migrationSlotPrefix + mid }
func arrivalSlot(mid string) string   { return arrivalSlotPrefix + mid }

// journalSlot is the record's slot, built once: a hop writes it up to
// three times.
func (r *migrationRecord) journalSlot() string {
	if r.slot == "" {
		r.slot = migrationSlot(r.MID)
	}
	return r.slot
}

// journalSlot is the record's slot, built once (arrMu held).
func (a *arrival) journalSlot() string {
	if a.slot == "" {
		a.slot = arrivalSlot(a.mid)
	}
	return a.slot
}

// putMigration writes (or rewrites) a journal record durably.
func (s *Site) putMigration(r *migrationRecord) error {
	return s.journal.Put(r.journalSlot(), wire.EncodeRecord(r.Fields))
}

// writeJournal applies one protocol step's batch through one barrier. A
// failure is logged, not fatal: memory still answers retries and status
// queries, and a lost commit leaves its PREPARE record for recovery.
func (s *Site) writeJournal(step, mid string, batch map[string][]byte) error {
	err := s.journal.PutAll(batch)
	if err != nil {
		s.log("migration %s: journal %s: %v", mid, step, err)
	}
	return err
}

// prepareMigration numbers a migration toward dest and returns the number
// with the least one still unresolved toward dest, its own included.
func (s *Site) prepareMigration(dest string) (num, acked int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.migSeq++
	s.pendingTo[dest] = append(s.pendingTo[dest], s.migSeq)
	return s.migSeq, slices.Min(s.pendingTo[dest])
}

// endMigration writes a migration's outcome batch and, once that is
// durable, takes it off the pending set: the next dispatch acks it.
func (s *Site) endMigration(step string, r *migrationRecord, batch map[string][]byte) error {
	if err := s.writeJournal(step, r.MID, batch); err != nil {
		return err
	}
	s.mu.Lock()
	s.pendingTo[r.Dest] = without(s.pendingTo[r.Dest], r.Num)
	s.mu.Unlock()
	return nil
}

// without removes x's first occurrence from xs.
func without[T comparable](xs []T, x T) []T {
	if i := slices.Index(xs, x); i >= 0 {
		return slices.Delete(xs, i, i+1)
	}
	return xs
}

// abortMigration ends a migration whose agent was reinstated here: deleting
// the record is the outcome. A crash before it leaves the PREPARE record,
// which recovery resolves against the peer to the same answer.
func (s *Site) abortMigration(r *migrationRecord) {
	s.endMigration("abort", r, map[string][]byte{r.journalSlot(): nil})
}

// commitMigration finalizes a successful hand-off in one atomic batch, the
// origin's COMMIT step (DESIGN.md §9): the arrival records that carried
// the agent *into* this site are marked departed (so a restart does not
// resurrect it), a checkpoint that names this incarnation loses the name
// and the image (so a stale PersistAll snapshot cannot either), and the
// migration record is deleted — never the delete without the marks. It
// reports whether the agent is back: an incarnation younger than r.Seq
// lives here, and keeps its place in the checkpoint.
func (s *Site) commitMigration(r *migrationRecord, id naming.ID) (back bool) {
	batch := map[string][]byte{r.journalSlot(): nil}
	back = s.markAgentDeparted(r, id, batch)
	if back || s.cfg.Store == nil || !s.scrubCheckpoint(r, id, batch) {
		s.endMigration("commit", r, batch)
	}
	return back
}

// scrubCheckpoint is the checkpoint's share of a commit, and reports
// whether it wrote the batch. The manifest is only touched when its
// membership — kept in memory — names the departed agent, and only then is
// manMu held across the write: concurrent departures rewrite the manifest
// one after another, and a PersistAll that enumerated the agent before it
// retired finishes first and is then undone here. An agent no checkpoint
// names has an image slot nothing restores from (BootstrapHome goes by the
// manifest), so nothing is written for it.
func (s *Site) scrubCheckpoint(r *migrationRecord, id naming.ID, batch map[string][]byte) bool {
	s.manMu.Lock()
	defer s.manMu.Unlock()
	ids, err := s.persistedManifest()
	if err != nil || ids[r.Name] != id {
		return false
	}
	delete(ids, r.Name)
	batch[homeManifestSlot] = encodeManifest(ids)
	batch[id.String()] = nil
	if s.endMigration("commit", r, batch) != nil {
		s.manifest = nil
	}
	return true
}

// InDoubtMigrations lists the IDs of journaled migrations not yet resolved
// (state prepared or in-doubt), sorted. Orphaned records are excluded:
// they are no longer awaiting automatic resolution (see MigrationReport).
func (s *Site) InDoubtMigrations() []string {
	var out []string
	for _, rec := range s.pendingMigrations() {
		if s.migrationOrphaned(rec) {
			continue
		}
		out = append(out, rec.MID)
	}
	sort.Strings(out)
	return out
}

// scanJournal decodes every journal record under a slot prefix. A slot
// that cannot be read or decoded is handed to skipped and left out: one
// damaged record must not keep the rest from being recovered. A record, or
// the image it carries, in a format from before records fails the scan
// (wire.ErrNotRecord): skipped, a dedup record would be lost, and a
// redelivered dispatch could install a second live copy (DESIGN §9).
func scanJournal[T any](s *Site, prefix string, decode func([]byte) (T, error),
	skipped func(slot string, err error)) ([]T, error) {
	slots, err := s.journal.List()
	if err != nil {
		return nil, err
	}
	var out []T
	for _, slot := range slots {
		if !strings.HasPrefix(slot, prefix) {
			continue
		}
		raw, err := s.journal.Get(slot)
		if err != nil {
			skipped(slot, err)
			continue
		}
		rec, err := decode(raw)
		if errors.Is(err, wire.ErrNotRecord) {
			return nil, fmt.Errorf("%s: %w", slot, err)
		} else if err != nil {
			skipped(slot, err)
			continue
		}
		out = append(out, rec)
	}
	return out, nil
}

// pendingMigrations decodes every unresolved (prepared or in-doubt)
// origin-journal record. Damaged records are left to ResolveMigrations to
// report; an unreadable journal lists nothing.
func (s *Site) pendingMigrations() []*migrationRecord {
	recs, _ := scanJournal(s, migrationSlotPrefix, decodeMigrationRecord, func(string, error) {})
	out := recs[:0]
	for _, rec := range recs {
		if rec.State == migrationPrepared || rec.State == migrationInDoubt {
			out = append(out, rec)
		}
	}
	return out
}

// ---- journal hygiene ----

func (s *Site) maxMigrationAttempts() int {
	if s.cfg.MaxMigrationAttempts > 0 {
		return s.cfg.MaxMigrationAttempts
	}
	return DefaultMaxMigrationAttempts
}

func (s *Site) maxMigrationAge() time.Duration {
	if s.cfg.MaxMigrationAge > 0 {
		return s.cfg.MaxMigrationAge
	}
	return DefaultMaxMigrationAge
}

// migrationOrphaned reports whether a journal record has exhausted its
// automatic-resolution budget (attempt or age cap). Orphaned records are
// not deleted — the journaled image may be the agent's only surviving
// copy — but resolution stops retrying them and they are surfaced to
// operators through MigrationReport.
func (s *Site) migrationOrphaned(rec *migrationRecord) bool {
	if rec.Attempts >= int64(s.maxMigrationAttempts()) {
		return true
	}
	if rec.Born > 0 && time.Since(time.Unix(0, rec.Born)) > s.maxMigrationAge() {
		return true
	}
	return false
}

// MigrationInfo is one unresolved origin-journal record, as reported to
// operators (MigrationReport).
type MigrationInfo struct {
	MID      string
	Name     string // agent name
	Dest     string // destination site
	State    string // prepared | indoubt
	Attempts int    // failed resolution rounds so far
	Age      time.Duration
	Orphaned bool // past an attempt/age cap; no longer retried automatically
}

// MigrationReport lists this site's unresolved outgoing migrations,
// sorted by migration ID — the operator view of journal health. A healthy
// site's report is empty; entries with Orphaned set need intervention
// (the destination is gone for good, or the journal record is damaged).
func (s *Site) MigrationReport() []MigrationInfo {
	var out []MigrationInfo
	for _, rec := range s.pendingMigrations() {
		info := MigrationInfo{
			MID:      rec.MID,
			Name:     rec.Name,
			Dest:     rec.Dest,
			State:    rec.State,
			Attempts: int(rec.Attempts),
			Orphaned: s.migrationOrphaned(rec),
		}
		if rec.Born > 0 {
			info.Age = time.Since(time.Unix(0, rec.Born))
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].MID < out[j].MID })
	return out
}

// OrphanedMigrations filters MigrationReport down to records past their
// attempt/age cap.
func (s *Site) OrphanedMigrations() []MigrationInfo {
	var out []MigrationInfo
	for _, info := range s.MigrationReport() {
		if info.Orphaned {
			out = append(out, info)
		}
	}
	return out
}

// ---- destination: durable dedup table ----

// arrival is one dedup-table entry: everything known about a migration
// that targeted this site. Entries are created when the dispatch claims
// its migration ID and completed when onArrival returns; done closes when
// the outcome (including failure) is recorded, so concurrent retries of
// the same migration wait instead of re-installing.
type arrival struct {
	mid     string
	name    string
	from    string
	agentID naming.ID
	image   []byte
	seq     int64
	num     int64 // the migration's number at its origin
	state   string
	result  value.Value
	errMsg  string
	// next names the site the agent departed to, set when the record is
	// marked departed. Chained across sites, from/next let the status query
	// trace a full itinerary: each site knows where the agent came from and
	// where it went.
	next string
	// checkpointed is set while the persisted Home manifest names the agent
	// of a live record: replay no longer needs it.
	checkpointed bool
	// acked: the origin resolved the migration, so no retry or status query
	// asks for the record again (a birth site's synthetic one: from the start).
	acked bool
	slot  string // built once by journalSlot
	done  chan struct{}
}

// live reports whether replay reinstalls the agent from a.
func (a *arrival) live() bool { return a.state == arrivalInstalled || a.state == arrivalDone }

// spent reports whether nothing is replayed from a: departed, failed, or
// live but named by a checkpoint.
func (a *arrival) spent() bool {
	return a.state == arrivalDeparted || a.state == arrivalFailed || a.checkpointed
}

// settled is the done channel of a record made settled.
var settled = func() chan struct{} { c := make(chan struct{}); close(c); return c }()

// Fields describes the journaled part of a record; the rest is memory.
func (a *arrival) Fields(c *wire.Codec) {
	c.Str("mid", &a.mid)
	c.Str("name", &a.name)
	c.Str("from", &a.from)
	c.ID("agent", &a.agentID)
	c.Bytes("image", &a.image)
	c.Int("seq", &a.seq)
	c.Int("num", &a.num)
	c.Str("state", &a.state)
	c.Value("result", &a.result)
	c.Str("err", &a.errMsg)
	c.Str("next", &a.next)
}

func decodeArrival(raw []byte) (*arrival, error) {
	a := &arrival{done: settled} // a replayed record is settled by definition
	if err := wire.DecodeRecord(raw, a.Fields); err != nil {
		return a, err
	}
	return a, imageForm(a.image)
}

// claimArrival registers interest in a migration ID. The first caller owns
// the installation (owner true) and gets the batch its first journal write
// carries, with the deletes of the records req's ack let go; later callers
// get the existing entry and report its recorded outcome instead.
func (s *Site) claimArrival(req *dispatchReq) (a *arrival, owner bool, batch map[string][]byte) {
	s.arrMu.Lock()
	defer s.arrMu.Unlock()
	if a, ok := s.arrivals[req.MID]; ok {
		return a, false, nil
	}
	batch = make(map[string][]byte, 2)
	recs := s.arrUnacked[req.Site]
	kept := recs[:0]
	for _, r := range recs {
		if r.acked = r.num < req.Acked; r.acked {
			s.settleArrivals(r.name, batch)
		} else {
			kept = append(kept, r)
		}
	}
	clear(recs[len(kept):])
	s.arrUnacked[req.Site] = kept
	a = &arrival{
		mid:   req.MID,
		name:  req.Name,
		from:  req.Site,
		num:   req.Seq,
		seq:   s.arrSeq.Add(1),
		state: arrivalPending,
		done:  make(chan struct{}),
	}
	s.addArrival(a)
	s.settleArrivals(a.name, batch)
	return a, true, batch
}

// addArrival enters a into the table and its indexes (arrMu held).
func (s *Site) addArrival(a *arrival) {
	s.arrivals[a.mid] = a
	s.arrOrder = append(s.arrOrder, a)
	s.arrByName[a.name] = append(s.arrByName[a.name], a)
	if a.from == "" {
		a.acked = true
	} else {
		s.arrUnacked[a.from] = append(s.arrUnacked[a.from], a)
	}
}

// settleArrivals lets go of every record of an agent name that is acked,
// replays nothing and is not the youngest, the forward pointer a trace
// reads; their journal deletes join batch (arrMu held).
func (s *Site) settleArrivals(name string, batch map[string][]byte) {
	recs := s.arrByName[name] // forgetting one shifts only those after it
	for i := len(recs) - 2; i >= 0; i-- {
		if a := recs[i]; a.acked && a.spent() {
			s.forgetArrival(a, batch)
		}
	}
}

// forgetArrival removes a from the table and its indexes, and its journal
// slot through batch; failures were never journaled (arrMu held).
func (s *Site) forgetArrival(a *arrival, batch map[string][]byte) {
	delete(s.arrivals, a.mid)
	s.arrOrder = without(s.arrOrder, a)
	if s.arrByName[a.name] = without(s.arrByName[a.name], a); len(s.arrByName[a.name]) == 0 {
		delete(s.arrByName, a.name)
	}
	if a.state != arrivalFailed {
		batch[a.journalSlot()] = nil
	}
}

// arrivalBatch adds a's current state to batch, with the evictions the
// table's cap asks for riding the same barrier (arrMu held).
func (s *Site) arrivalBatch(a *arrival, batch map[string][]byte) map[string][]byte {
	batch[a.journalSlot()] = wire.EncodeRecord(a.Fields)
	s.evictArrivals(batch)
	return batch
}

// recordInstalled durably ACKs an installation *before* onArrival runs:
// from this point the origin must commit, whatever the arrival handler
// does. batch is what the claim let go.
func (s *Site) recordInstalled(a *arrival, batch map[string][]byte, id naming.ID, image []byte) {
	s.arrMu.Lock()
	a.agentID = id
	a.image = image
	a.state = arrivalInstalled
	s.arrivalBatch(a, batch)
	s.arrMu.Unlock()
	s.writeJournal("installed", a.mid, batch)
}

// completeArrival records onArrival's outcome and then releases waiters,
// so a status query that sees the outcome sees a durable one. The done
// transition only applies to a still-installed record: an arrival
// handler that chains the agent onward commits that departure *inside*
// onArrival, so by the time the outcome is recorded here the record may
// already say departed — overwriting it with done would break the
// itinerary trace and, worse, let a crash replay resurrect a copy of an
// agent that has already moved on.
func (s *Site) completeArrival(a *arrival, result value.Value, arrivalErr error) {
	s.arrMu.Lock()
	if a.state != arrivalDeparted {
		a.state = arrivalDone
	}
	a.result = result
	if arrivalErr != nil {
		a.errMsg = fmt.Sprintf("agent %q onArrival: %v", a.name, arrivalErr)
	}
	batch := s.arrivalBatch(a, make(map[string][]byte, 1))
	s.arrMu.Unlock()
	s.writeJournal("done", a.mid, batch)
	close(a.done)
}

// failArrival records an installation failure and returns err for
// convenience. Failures are kept in memory only: a crashed destination has
// nothing to replay, and the origin's status query correctly reads absence
// as "the agent never landed". batch, what the claim let go, is still
// written.
func (s *Site) failArrival(a *arrival, batch map[string][]byte, err error) error {
	s.arrMu.Lock()
	a.state = arrivalFailed
	a.errMsg = err.Error()
	close(a.done)
	s.evictArrivals(batch)
	s.arrMu.Unlock()
	if len(batch) > 0 {
		s.writeJournal("failed", a.mid, batch)
	}
	return err
}

// arrivalOutcome reads a recorded (or in-flight) migration's outcome,
// waiting under ctx for a concurrent installation to settle: its state,
// onArrival's error, and onArrival's result when there is no error. A
// retried dispatch and a status query are both answered from it.
func (s *Site) arrivalOutcome(ctx context.Context, a *arrival) (statusReply, error) {
	select {
	case <-a.done:
	case <-ctx.Done():
		return statusReply{}, ctx.Err()
	}
	s.arrMu.Lock()
	defer s.arrMu.Unlock()
	rep := statusReply{State: a.state}
	if rep.ArrivalError = a.errMsg; a.errMsg == "" {
		rep.Result = a.result
	}
	return rep, nil
}

// markAgentDeparted marks arrival records of an agent that just migrated
// onward, so a restart does not resurrect a copy that lives elsewhere.
// Each record keeps the next hop, so a status query here can point an
// itinerary trace at the site the agent went to. Only records claimed
// before the dispatch began (seq ≤ watermark) are touched: an itinerary
// looping home re-arrives mid-dispatch with a younger record, and that
// incarnation stays. Marked records settleArrivals lets go leave with it.
//
// An agent leaving its birth site has no arrival record to mark; a
// synthetic departed record (under the migration's own ID) is journaled
// instead, so a trace can start at the agent's first home. The synthetic
// record is skipped whenever ANY live record for the agent exists — marked
// or not — because a younger, watermark-protected incarnation must stay
// the youngest answer the status query sees.
func (s *Site) markAgentDeparted(rec *migrationRecord, id naming.ID, batch map[string][]byte) (back bool) {
	next, watermark := rec.Dest, rec.Seq
	s.arrMu.Lock()
	defer s.arrMu.Unlock()
	found := false
	for _, a := range s.arrByName[rec.Name] {
		if a.agentID != id || !a.live() {
			continue
		}
		found = true
		if a.seq > watermark {
			back = true
			continue
		}
		a.state = arrivalDeparted
		a.next = next
		// Only installed/done records are ever replayed; a departed one
		// keeps its place in the dedup table, not a copy of the agent.
		a.image = nil
		batch[a.journalSlot()] = wire.EncodeRecord(a.Fields)
	}
	if _, dup := s.arrivals[rec.MID]; !found && !dup {
		syn := &arrival{
			mid:     rec.MID,
			name:    rec.Name,
			agentID: id,
			seq:     s.arrSeq.Add(1),
			state:   arrivalDeparted,
			next:    next,
			done:    settled,
		}
		s.addArrival(syn)
		batch[syn.journalSlot()] = wire.EncodeRecord(syn.Fields)
	}
	s.settleArrivals(rec.Name, batch)
	s.evictArrivals(batch)
	return back
}

// evictArrivals caps the dedup table at Config.MaxArrivalRecords (arrMu
// held): the oldest acked records nothing replays — forward pointers, and
// live ones a checkpoint names — leave, their slot deletes joining batch,
// the write that made the table grow. An unacked record is never evicted:
// its origin may still retry or ask, and it would read "never landed". So
// in-flight and in-doubt migrations can hold the table over the cap; what
// the cap bounds is how far back a trace can follow agents through a site.
func (s *Site) evictArrivals(batch map[string][]byte) {
	for i := 0; len(s.arrOrder) > s.maxArrivals() && i < len(s.arrOrder); i++ {
		if a := s.arrOrder[i]; a.acked && a.spent() {
			s.forgetArrival(a, batch)
			i-- // the next record moved into i
		}
	}
}

func (s *Site) maxArrivals() int {
	if s.cfg.MaxArrivalRecords > 0 {
		return s.cfg.MaxArrivalRecords
	}
	return DefaultMaxArrivalRecords
}

// ArrivalRecords reports the dedup table's current migration IDs, sorted
// (diagnostics and pruning tests).
func (s *Site) ArrivalRecords() []string {
	s.arrMu.Lock()
	defer s.arrMu.Unlock()
	out := make([]string, 0, len(s.arrivals))
	for mid := range s.arrivals {
		out = append(out, mid)
	}
	sort.Strings(out)
	return out
}

// ---- status query ----

// MigrationStatus is the destination's answer about one migration ID.
type MigrationStatus struct {
	// Landed reports whether the agent was installed at the destination
	// (it may since have moved on; the migration itself still happened).
	Landed bool
	// State is the raw arrival state ("unknown" when never seen).
	State string
	// Result is onArrival's recorded result, when it has one.
	Result value.Value
	// ArrivalError is onArrival's recorded failure message, if any.
	ArrivalError string
}

// MigrationStatusAt queries a linked peer for a migration's outcome.
func (s *Site) MigrationStatusAt(peerName, mid string) (MigrationStatus, error) {
	req := statusReq{Site: s.cfg.Name, MID: mid}
	var rep statusReply
	if err := s.callPeer(peerName, verbMigrationStatus, "", req.Fields, rep.Fields); err != nil {
		return MigrationStatus{}, err
	}
	st := MigrationStatus{State: rep.State, Result: rep.Result, ArrivalError: rep.ArrivalError}
	switch st.State {
	case arrivalInstalled, arrivalDone, arrivalDeparted:
		st.Landed = true
	}
	return st, nil
}

// AgentStatus is one site's answer about an agent, for itinerary tracing.
type AgentStatus struct {
	// State is "resident" when the agent lives at the answering site,
	// otherwise the youngest arrival record's state ("departed",
	// "failed", …) or "unknown" when the site never saw the agent.
	State string
	// Next is the site the agent departed to, when State is "departed".
	Next string
}

// AgentStatusResident is AgentStatus.State for an agent living at the
// answering site.
const AgentStatusResident = "resident"

// AgentArrivalStatus reports whether an agent lives at this site and,
// if it passed through and left, where it went — the local half of the
// itinerary trace TraceAgent stitches from every peer's. Residency wins over
// any record: a live copy here IS the answer, whatever older visits say.
func (s *Site) AgentArrivalStatus(name string) AgentStatus {
	if _, err := s.ResolveObject(name); err == nil {
		return AgentStatus{State: AgentStatusResident}
	}
	s.arrMu.Lock()
	defer s.arrMu.Unlock()
	recs := s.arrByName[name]
	if len(recs) == 0 {
		return AgentStatus{State: "unknown"}
	}
	youngest := recs[len(recs)-1]
	return AgentStatus{State: youngest.state, Next: youngest.next}
}

// handleMigrationStatus answers a status query, read-only and retry-safe:
// by migration ID from the dedup table, an in-flight installation waited
// for (bounded by the request context) so the origin learns the settled
// outcome, not a racing snapshot; or by agent, the itinerary-trace view of
// AgentArrivalStatus.
func (s *Site) handleMigrationStatus(ctx context.Context, req *statusReq) (func(*wire.Codec), error) {
	if err := s.linkedPeer(req.Site); err != nil {
		return nil, err // only linked sites may probe migration state
	}
	if req.Agent != "" {
		rep := agentReply(s.AgentArrivalStatus(req.Agent))
		return rep.Fields, nil
	}
	mid := req.MID
	if mid == "" {
		return nil, fmt.Errorf("%w: status query needs a migration id", core.ErrArity)
	}
	s.arrMu.Lock()
	a := s.arrivals[mid]
	s.arrMu.Unlock()
	if a == nil {
		// Not in memory — maybe this site restarted without a replay; the
		// journal is the source of truth.
		if raw, err := s.journal.Get(arrivalSlot(mid)); err == nil {
			if rec, derr := decodeArrival(raw); derr == nil {
				a = rec
			}
		}
	}
	if a == nil {
		rep := statusReply{State: "unknown"}
		return rep.Fields, nil
	}
	rep, err := s.arrivalOutcome(ctx, a)
	if err != nil {
		return nil, err
	}
	return rep.Fields, nil
}

// ---- recovery ----

// replayArrivals reloads the destination dedup table from the journal and
// reinstalls agents that had landed here (installed or done) but are not
// in memory — the destination half of crash recovery. onArrival is NOT
// re-run: it already ran (or was cut short by the crash) in the acked
// incarnation. The table is rebuilt oldest first; agents are installed
// youngest first, so when a crash left two live records of one agent (a
// loop-home arrival beside the record it left from) the image that came
// back — carrying what the journey gathered — is the one that runs.
// Returns the names reinstalled.
func (s *Site) replayArrivals(recs []*arrival) []string {
	sort.Slice(recs, func(i, j int) bool { return recs[i].seq < recs[j].seq })

	var live []*arrival
	s.arrMu.Lock()
	for _, a := range recs {
		if _, dup := s.arrivals[a.mid]; dup {
			continue // already live in memory
		}
		s.arrSeq.Store(max(s.arrSeq.Load(), a.seq))
		s.addArrival(a) // unacknowledged until its origin's next dispatch
		if a.live() {
			live = append(live, a)
		}
	}
	s.arrMu.Unlock()

	var restored []string
	for i := len(live) - 1; i >= 0; i-- {
		a := live[i]
		if _, err := s.ResolveObject(a.name); err == nil {
			continue // a live (or younger) incarnation is already installed
		}
		if err := s.installImage(a.name, a.image); err != nil {
			s.log("replay arrival %s (%s): %v", a.mid, a.name, err)
			continue
		}
		restored = append(restored, a.name)
	}
	return restored
}

// installImage materializes a stored image — a journaled agent or a
// checkpointed APO — into Home. The image was read from the store, a copy
// nothing writes again, so it is decoded in place.
func (s *Site) installImage(name string, image []byte) error {
	img, err := wire.DecodeImage(image)
	if err != nil {
		return err
	}
	return s.install(name, img)
}

// install materializes a decoded image into Home.
func (s *Site) install(name string, img core.Image) error {
	obj, err := s.materialize(img)
	if err != nil {
		return err
	}
	return s.AddAPO(name, obj)
}

// ResolveMigrations drives every pending journal record to an outcome —
// the origin half of crash recovery, also callable any time to retry
// in-doubt migrations — through resolveInDoubt. Destinations that cannot
// be reached leave their records in doubt. Returns the names reinstated
// locally.
func (s *Site) ResolveMigrations() ([]string, error) {
	recs, err := s.scanMigrations()
	if err != nil {
		return nil, fmt.Errorf("resolve migrations: %w", err)
	}
	return s.resolveMigrations(recs), nil
}

// scanMigrations reads the origin journal, logging what it skips.
func (s *Site) scanMigrations() ([]*migrationRecord, error) {
	return scanJournal(s, migrationSlotPrefix, decodeMigrationRecord, func(slot string, err error) {
		s.log("resolve migration %s: %v", slot, err)
	})
}

// resolveMigrations is ResolveMigrations over records already read.
func (s *Site) resolveMigrations(recs []*migrationRecord) []string {
	var reinstated []string
	for _, rec := range recs {
		if rec.State != migrationPrepared && rec.State != migrationInDoubt {
			s.log("migration %s: unknown state %q left in journal", rec.MID, rec.State)
			continue
		}
		if s.migrationOrphaned(rec) {
			// Past the attempt/age cap: stop paying for resolution rounds
			// that keep failing. The record stays journaled (its image may
			// be the agent's only copy) and is surfaced via MigrationReport.
			s.log("migration %s to %s orphaned (%d attempts), skipping", rec.MID, rec.Dest, rec.Attempts)
			continue
		}
		if _, ok, _ := s.resolveInDoubt(rec, nil); ok {
			reinstated = append(reinstated, rec.Name)
		}
	}
	sort.Strings(reinstated)
	return reinstated
}

// resolveInDoubt settles a migration whose outcome is unknown by asking its
// destination, for a live dispatch and for recovery alike. Landed, the
// migration commits, and a local copy of the same incarnation (one a
// replayed arrival record reinstalled) retires unless the journey brought
// the agent back. Not landed, the agent is reinstated, unless a live
// incarnation is already installed, and the migration aborts: agent is the
// retired object a live dispatch still holds, and nil materializes the
// journaled image. No answer spends one attempt, durably — a restart
// resumes the count instead of resetting the orphan clock — and the record
// stays in doubt; err is then the query's.
func (s *Site) resolveInDoubt(rec *migrationRecord, agent *core.Object) (st MigrationStatus, reinstated bool, err error) {
	img, err := wire.DecodeImage(rec.Image)
	if err != nil {
		s.log("resolve migration %s: corrupt image: %v", rec.MID, err)
		return st, false, err
	}
	if st, err = s.MigrationStatusAt(rec.Dest, rec.MID); err != nil {
		rec.Attempts++
		if jerr := s.putMigration(rec); jerr != nil {
			s.log("migration %s: attempt count write failed: %v", rec.MID, jerr)
		}
		s.log("migration %s to %s still in doubt (attempt %d): %v", rec.MID, rec.Dest, rec.Attempts, err)
		return st, false, err
	}
	if st.Landed {
		if back := s.commitMigration(rec, img.ID); !back {
			if obj, err := s.ResolveObject(rec.Name); err == nil && obj.ID() == img.ID {
				s.retireAgent(rec.Name, img.ID)
			}
		}
		s.log("migration %s: resolved committed (agent at %s)", rec.MID, rec.Dest)
		return st, false, nil
	}
	if _, err := s.ResolveObject(rec.Name); err != nil {
		if agent == nil {
			if agent, err = s.materialize(img); err != nil {
				s.log("resolve migration %s: reinstate: %v", rec.MID, err)
				return st, false, err
			}
		}
		s.reinstateAgent(rec.Name, agent, rec.WasAPO)
		reinstated = true
	}
	s.abortMigration(rec)
	s.log("migration %s: resolved aborted (reinstated %s)", rec.MID, rec.Name)
	return st, reinstated, nil
}

// definiteDispatchFailure classifies a dispatch error: true means the
// request demonstrably did NOT install the agent (the peer answered with
// an error, or the call was refused before anything was sent), so the
// origin may reinstate immediately. Anything else is ambiguous — the peer
// may have installed the agent and only the reply was lost.
func definiteDispatchFailure(err error) bool {
	var re *transport.RemoteError
	if errors.As(err, &re) {
		return true // the peer executed the handler and it failed pre-ACK
	}
	return errors.Is(err, ErrPeerDown) ||
		errors.Is(err, transport.ErrCircuitOpen) ||
		errors.Is(err, ErrNotLinked) ||
		errors.Is(err, transport.ErrNoPeer)
}
