package hadas

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/naming"
	"repro/internal/value"
	"repro/internal/wire"
)

// This file implements itinerant agents — the third family of mobile code
// the paper motivates (§1): "execution of computational objects known as
// 'agents', which exhibit some level of autonomy and/or intelligence in
// the form of goals, plans, itinerary". Where an Ambassador is a stationary
// representative owned by its origin, an agent *moves*: Dispatch ships the
// whole object (state, script methods, ACLs, meta-invoke chain) to a peer,
// removes it locally — the object exists in exactly one place — and the
// receiving site installs it and invokes its onArrival method. An agent
// continues its journey by invoking dispatchAgent on the hosting IOO.
//
// The hand-off runs the journaled two-phase protocol of migration.go, so
// "exactly one place" holds across crashes, retries and partitions.

const verbDispatch = "hadas.dispatch"

// onArrival is the method a dispatched agent is invoked with on arrival
// (if it has one): onArrival(hopContext).
const onArrivalMethod = "onArrival"

// DispatchAgent migrates a hosted object to a linked peer. The object is
// snapshotted, journaled (PREPARE), shipped under a migration ID, and
// deregistered locally on success (migration, not replication: "each
// Ambassador has exactly one origin" generalizes to the agent existing at
// exactly one host). It returns the value produced by the agent's
// onArrival at the destination, which — since arrivals can chain further
// dispatches — is the result of the rest of the journey.
//
// Failure semantics:
//   - definite failure (the peer answered with an error, or the call was
//     refused before sending): the agent is reinstated here, ABORT journaled;
//   - ambiguous transport failure: the migration goes IN-DOUBT and is
//     resolved against the destination's dedup table via
//     hadas.migration.status — committed if the agent landed, reinstated
//     if not, or left in doubt (ErrMigrationInDoubt), one resolution
//     attempt spent, when the destination cannot be reached;
//     BootstrapHome/ResolveMigrations retries later;
//   - an onArrival error at the destination is reported as an error but
//     the migration still commits: installation was acknowledged first,
//     so the agent lives at the destination, not here.
func (s *Site) DispatchAgent(name, peerName string) (value.Value, error) {
	// A destination the breaker refuses fails fast before the journal or
	// the registries are touched — no in-doubt record to resolve later. Past
	// the cooldown the breaker's answer is its half-open probe.
	if res, err := s.connTo(peerName); err != nil {
		return value.Null, fmt.Errorf("dispatch %q to %q: %w", name, peerName, err)
	} else if err := res.Admit(s.callCtx()); err != nil {
		return value.Null, fmt.Errorf("dispatch %q to %q: %w: %v", name, peerName, ErrPeerDown, err)
	}
	// Claim the name: one migration of an agent at a time, so concurrent
	// dispatches cannot both retire-and-ship the same object. The claim
	// precedes the lookup — resolving first would let a second dispatch
	// capture the object, wait out the first, and ship a copy of an agent
	// that already left.
	s.mu.Lock()
	if s.migrating[name] {
		s.mu.Unlock()
		return value.Null, fmt.Errorf("dispatch %q: %w", name, ErrAgentMigrating)
	}
	s.migrating[name] = true
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.migrating, name)
		s.mu.Unlock()
	}()

	obj, err := s.ResolveObject(name)
	if err != nil {
		return value.Null, fmt.Errorf("dispatch %q: %w", name, err)
	}
	wasAPO := s.home.has(name)

	img, err := obj.Snapshot()
	if err != nil {
		return value.Null, fmt.Errorf("dispatch %q: %w", name, err)
	}

	// PREPARE: the journal record (with the full image) is durable before
	// the agent is retired, so a crash at any later point can reinstate it.
	mid := s.gen.New().String()
	num, acked := s.prepareMigration(peerName)
	rec := &migrationRecord{
		MID:    mid,
		Name:   name,
		Dest:   peerName,
		State:  migrationPrepared,
		WasAPO: wasAPO,
		Image:  wire.EncodeImage(img),
		Seq:    s.arrSeq.Load(),
		Num:    num,
		Born:   time.Now().UnixNano(),
	}
	if err := s.putMigration(rec); err != nil {
		s.abortMigration(rec)
		return value.Null, fmt.Errorf("dispatch %q: journal: %w", name, err)
	}

	// The agent leaves when it is shipped: retire it *before* the call.
	// The journey is synchronous and may legally end back at this site
	// (the itinerary loops home), in which case the arrival handler
	// re-registers it here — retiring afterwards would erase the returned
	// incarnation.
	s.retireAgent(name, obj.ID())
	req := dispatchReq{s.cfg.Name, name, rec.Image, mid, num, acked}
	var rep dispatchReply
	if err := s.callPeer(peerName, verbDispatch, "", req.Fields, rep.Fields); err != nil {
		if definiteDispatchFailure(err) {
			// The agent never left; restore it.
			s.reinstateAgent(name, obj, wasAPO)
			s.abortMigration(rec)
			return value.Null, fmt.Errorf("dispatch %q to %q: %w", name, peerName, err)
		}
		// Ambiguous: the peer may have installed the agent and only the
		// reply was lost. Go in doubt and ask, instead of blindly
		// reinstating a second copy.
		rec.State = migrationInDoubt
		if jerr := s.putMigration(rec); jerr != nil {
			s.log("migration %s: journal in-doubt failed: %v", mid, jerr)
		}
		st, _, qerr := s.resolveInDoubt(rec, obj)
		if qerr != nil {
			return value.Null, fmt.Errorf("dispatch %q to %q: %w (migration %s): %v (status query: %v)",
				name, peerName, ErrMigrationInDoubt, mid, err, qerr)
		}
		if !st.Landed {
			return value.Null, fmt.Errorf("dispatch %q to %q: %w", name, peerName, err)
		}
		rep = dispatchReply{st.Result, st.ArrivalError}
	} else {
		s.commitMigration(rec, obj.ID())
		if s.cfg.Output != nil { // a hop boxes log arguments only for a listener
			s.log("dispatched agent %s to %s (migration %s)", name, peerName, mid)
		}
	}
	if msg := rep.ArrivalError; msg != "" {
		// Installation was acknowledged before onArrival ran: the agent
		// lives at the destination even though its arrival handler failed.
		return value.Null, fmt.Errorf("dispatch %q to %q: %s", name, peerName, msg)
	}
	return rep.Result, nil
}

// retireAgent removes a moved object from the local registries; it reports
// whether the object was a Home member (for reinstatement on failure).
func (s *Site) retireAgent(name string, id naming.ID) (wasAPO bool) {
	wasAPO = s.home.remove(name, nil)
	s.mu.Lock()
	delete(s.ambassadors, name)
	s.mu.Unlock()
	s.objects.Deregister(id)
	s.objects.Unbind(name)
	return wasAPO
}

// reinstateAgent restores an object whose dispatch failed.
func (s *Site) reinstateAgent(name string, obj *core.Object, wasAPO bool) {
	if wasAPO {
		s.home.put(name, obj)
	} else {
		s.mu.Lock()
		s.ambassadors[name] = obj
		s.mu.Unlock()
	}
	s.objects.Register(obj.ID(), obj)
	_ = s.objects.Rebind(name, obj.ID())
}

// handleDispatch receives a migrating agent: materialize under this host's
// policy and budget, register it, durably acknowledge the installation,
// and only then invoke its onArrival with a hop context. The reply carries
// onArrival's result (the journey's tail) or its error — either way the
// agent lives here by then.
//
// Receipt is idempotent: the migration ID claims a dedup-table entry, and
// a retried dispatch (the origin's transport layer may replay the verb)
// returns the recorded outcome without re-installing or re-running
// onArrival. A concurrent retry waits for the first installation to
// settle.
func (s *Site) handleDispatch(ctx context.Context, req *dispatchReq) (func(*wire.Codec), error) {
	fromSite, name, raw := req.Site, req.Name, req.Agent
	if err := s.linkedPeer(fromSite); err != nil {
		return nil, err // agents only arrive over cooperation agreements
	}
	// Every arrival is journaled under its migration ID: without one, a
	// crash would lose the agent, and a replay re-run onArrival.
	if name == "" || req.MID == "" {
		return nil, fmt.Errorf("%w: agent needs a name and a migration id", core.ErrArity)
	}
	arr, owner, batch := s.claimArrival(req)
	if !owner {
		out, err := s.arrivalOutcome(ctx, arr)
		if err == nil && out.State == arrivalFailed {
			err = errors.New(out.ArrivalError)
		}
		if err != nil {
			return nil, err
		}
		return out.dispatchReply.Fields, nil
	}
	img, err := wire.DecodeImage(raw)
	if err != nil {
		return nil, s.failArrival(arr, batch, fmt.Errorf("arriving agent: %w", err))
	}
	agent, err := s.materialize(img)
	if err != nil {
		return nil, s.failArrival(arr, batch, fmt.Errorf("arriving agent: %w", err))
	}
	// A refused admission is answered as an error: the origin sees a
	// definite failure and reinstates its copy.
	if err := s.admit(name, agent, true); err != nil {
		return nil, s.failArrival(arr, batch, err)
	}
	if s.cfg.Output != nil {
		s.log("agent %s arrived from %s", name, fromSite)
	}

	// ACK point: the installation is recorded durably before onArrival
	// runs. From here the origin commits; an arrival handler's error (or
	// a crash during it) can no longer resurrect the origin copy.
	s.recordInstalled(arr, batch, agent.ID(), raw)

	hop := value.NewMap(map[string]value.Value{
		"hostSite": value.NewString(s.cfg.Name),
		"fromSite": value.NewString(fromSite),
		"agent":    value.NewString(name),
	})
	result := value.Null
	var arrivalErr error
	if agent.HasMethod(agent.Principal(), onArrivalMethod) {
		result, arrivalErr = agent.Invoke(s.ioo.Principal(), onArrivalMethod, hop)
	}
	s.completeArrival(arr, result, arrivalErr)
	rep := dispatchReply{Result: result}
	if arrivalErr != nil {
		rep = dispatchReply{ArrivalError: fmt.Sprintf("agent %q onArrival: %v", name, arrivalErr)}
	}
	return rep.Fields, nil
}
