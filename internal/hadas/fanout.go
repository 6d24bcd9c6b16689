package hadas

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/security"
	"repro/internal/transport"
	"repro/internal/value"
	"repro/internal/wire"
)

// This file is the site-level face of the pipelined transport (DESIGN.md
// §14): a fan-out issues K remote operations in one round — requests to
// the same peer leave back-to-back in a single coalesced flush
// (transport.MultiCaller), distinct peers are driven concurrently — so the
// wall-clock cost is one RTT plus per-call epsilon, not K sequential RTTs.

// fanReq is one wire request of a fan-out batch.
type fanReq struct {
	peer, verb string
	payload    []byte
}

// fanOut issues every request pipelined and returns outcomes matching
// reqs by index. Per-peer batches share one connection round; a peer that
// cannot be reached fails only its own entries.
func (s *Site) fanOut(reqs []fanReq) []transport.MultiResult {
	byPeer := make(map[string][]int)
	for i, r := range reqs {
		byPeer[r.peer] = append(byPeer[r.peer], i)
	}
	out := make([]transport.MultiResult, len(reqs))
	var wg sync.WaitGroup
	for peer, idxs := range byPeer {
		wg.Add(1)
		go func(peer string, idxs []int) {
			defer wg.Done()
			conn, err := s.connTo(peer)
			if err != nil {
				for _, i := range idxs {
					out[i].Err = err
				}
				return
			}
			batch := make([]transport.MultiRequest, len(idxs))
			for k, i := range idxs {
				batch[k] = transport.MultiRequest{Verb: reqs[i].verb, Payload: reqs[i].payload}
			}
			for k, res := range transport.DoMulti(s.callCtx(), conn, batch) {
				if errors.Is(res.Err, transport.ErrCircuitOpen) {
					res.Err = fmt.Errorf("%w: site %q: %v", ErrPeerDown, peer, res.Err)
				}
				out[idxs[k]] = res
			}
		}(peer, idxs)
	}
	wg.Wait()
	return out
}

// FanOutCall names one remote invocation of an InvokeFanOut batch.
type FanOutCall struct {
	Peer   string
	Caller security.Principal
	Target string
	Method string
	Args   []value.Value
}

// FanOutResult is the outcome of one FanOutCall, in batch order.
type FanOutResult struct {
	Peer   string
	Result value.Value
	Err    error
}

// InvokeFanOut performs every remote invocation of the batch in a single
// pipelined round: calls to the same peer are flushed back-to-back on one
// connection, peers run concurrently, and results keep batch order. Like
// InvokeRemote (and unlike InvokeRemoteFrom) the batch runs on no
// serialized call chain, which is the ambassador-update and query shape
// fan-out exists for; a method body relaying on behalf of an invocation
// must still use InvokeRemoteFrom per call so its chain travels.
func (s *Site) InvokeFanOut(calls []FanOutCall) []FanOutResult {
	reqs := make([]fanReq, len(calls))
	for i, c := range calls {
		req := invokeReq{s.cfg.Name, c.Caller.Object, c.Target, c.Method, c.Args}
		reqs[i] = fanReq{c.Peer, verbInvoke, wire.EncodeRecord(req.Fields)}
	}
	out := make([]FanOutResult, len(calls))
	for i, r := range s.fanOut(reqs) {
		out[i].Peer = calls[i].Peer
		var rep invokeReply
		if out[i].Err = r.Err; r.Err == nil {
			if out[i].Err = wire.DecodeRecord(r.Payload, rep.Fields); out[i].Err == nil {
				out[i].Result, out[i].Err = rep.result()
			}
		}
	}
	return out
}

// TraceAgent resolves an agent's whole itinerary in one fan-out round.
// Every linked peer is asked its agent-trace view at once (one pipelined
// query per peer instead of one RTT per hop), the local view answers for
// this site, and the itinerary is stitched from the departed next-hop
// records: starting at start (this site when empty), Next pointers are
// followed through the collected answers until a resident site, a broken
// trail, or the vicinity's edge. It returns the visited sites in order
// and the final status at the last of them.
func (s *Site) TraceAgent(start, agentName string) ([]string, AgentStatus, error) {
	if start == "" {
		start = s.cfg.Name
	}
	peers := s.PeerNames()
	req := statusReq{Site: s.cfg.Name, Agent: agentName}
	payload := wire.EncodeRecord(req.Fields)
	reqs := make([]fanReq, len(peers))
	for i, p := range peers {
		reqs[i] = fanReq{p, verbMigrationStatus, payload}
	}
	raw := s.fanOut(reqs)

	statuses := map[string]AgentStatus{s.cfg.Name: s.AgentArrivalStatus(agentName)}
	errs := map[string]error{}
	for i, p := range peers {
		var rep agentReply
		err := raw[i].Err
		if err == nil {
			err = wire.DecodeRecord(raw[i].Payload, rep.Fields)
		}
		if err != nil {
			errs[p] = err
			continue
		}
		statuses[p] = AgentStatus(rep)
	}

	path := []string{start}
	seen := map[string]bool{start: true}
	cur := start
	for {
		st, ok := statuses[cur]
		if !ok {
			if err := errs[cur]; err != nil {
				return path, AgentStatus{}, fmt.Errorf("trace %q: site %q unreachable: %w", agentName, cur, err)
			}
			return path, AgentStatus{}, fmt.Errorf("trace %q: %w: site %q outside this vicinity", agentName, ErrNotLinked, cur)
		}
		if st.State != arrivalDeparted || st.Next == "" {
			// Resident, failed, unknown, … — the trail ends here either way.
			return path, st, nil
		}
		if seen[st.Next] {
			// A revisited site whose youngest record still says departed
			// means the agent left again on a looping itinerary; its live
			// copy (if any) would have answered resident there.
			return path, st, fmt.Errorf("trace %q: itinerary loops at %q", agentName, st.Next)
		}
		cur = st.Next
		seen[cur] = true
		path = append(path, cur)
	}
}
