package hadas

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/naming"
	"repro/internal/transport"
	"repro/internal/value"
	"repro/internal/wire"
)

// The protocol's messages: one typed record per request and per reply
// (wire.Codec gives the format and the versioning rule). A reply carries
// only what its caller reads. A request's Site names the requester until
// the connection itself does.

// linkReply is a site's half of the link handshake: its identity and its
// IOO Ambassador's image. The requester's half adds the address it is
// dialed back on.
type linkReply struct {
	Site, Domain string
	IOO          []byte
}
type linkReq struct {
	linkReply
	Addr string
}

func (r *linkReply) Fields(c *wire.Codec) {
	c.Str("site", &r.Site)
	c.Str("domain", &r.Domain)
	c.Bytes("ioo", &r.IOO)
}
func (r *linkReq) Fields(c *wire.Codec) { r.linkReply.Fields(c); c.Str("addr", &r.Addr) }

type exportReq struct {
	Site, Domain, APO string
	IOO               naming.ID
}
type exportReply struct{ Ambassador []byte }

func (r *exportReq) Fields(c *wire.Codec) {
	c.Str("site", &r.Site)
	c.Str("domain", &r.Domain)
	c.Str("apo", &r.APO)
	c.ID("ioo", &r.IOO)
}
func (r *exportReply) Fields(c *wire.Codec) { c.Bytes("ambassador", &r.Ambassador) }

type invokeReq struct {
	Site           string
	Caller         naming.ID
	Target, Method string
	Args           []value.Value
}

func (r *invokeReq) Fields(c *wire.Codec) {
	c.Str("site", &r.Site)
	c.ID("caller", &r.Caller)
	c.Str("target", &r.Target)
	c.Str("method", &r.Method)
	c.Values("args", &r.Args)
}

// invokeReply is the result, or the failure under an outcome code naming
// the sentinel it carries, so the caller restores errors.Is without
// reading the message.
type invokeReply struct {
	Outcome int64
	Result  value.Value
	Msg     string
}

const (
	outcomeOK int64 = iota
	outcomeFailed
	outcomeDeadlock
	outcomeAdmissionTimeout
)

var outcomeSentinels = map[int64]error{outcomeDeadlock: core.ErrDeadlock, outcomeAdmissionTimeout: core.ErrAdmissionTimeout}

func (r *invokeReply) Fields(c *wire.Codec) {
	c.Int("outcome", &r.Outcome)
	c.Value("result", &r.Result)
	c.Str("msg", &r.Msg)
}

func invokeOutcome(result value.Value, err error) invokeReply {
	if err == nil {
		return invokeReply{Result: result}
	}
	for code := outcomeDeadlock; code <= outcomeAdmissionTimeout; code++ {
		if errors.Is(err, outcomeSentinels[code]) {
			return invokeReply{Outcome: code, Msg: err.Error()}
		}
	}
	return invokeReply{Outcome: outcomeFailed, Msg: err.Error()}
}

// result is what the remote invocation returned. A failure is the
// transport's RemoteError, wrapped with the sentinel its code names.
func (r *invokeReply) result() (value.Value, error) {
	if r.Outcome == outcomeOK {
		return r.Result, nil
	}
	err := error(&transport.RemoteError{Verb: verbInvoke, Msg: r.Msg})
	if sentinel := outcomeSentinels[r.Outcome]; sentinel != nil {
		err = fmt.Errorf("%w: %w", sentinel, err)
	}
	return value.Null, err
}

// dispatchReq ships an agent. Seq numbers the migration at its origin, and
// Acked is the least number the origin has not resolved toward this site,
// Seq included: Site settled every migration numbered below it.
type dispatchReq struct {
	Site, Name string
	Agent      []byte
	MID        string
	Seq, Acked int64
}

// dispatchReply is onArrival's result or failure: either way the agent was
// installed. A migration-ID status query answers it with the arrival state.
type dispatchReply struct {
	Result       value.Value
	ArrivalError string
}
type statusReply struct {
	dispatchReply
	State string
}

func (r *dispatchReq) Fields(c *wire.Codec) {
	c.Str("site", &r.Site)
	c.Str("name", &r.Name)
	c.Bytes("agent", &r.Agent)
	c.Str("mid", &r.MID)
	c.Int("seq", &r.Seq)
	c.Int("acked", &r.Acked)
}
func (r *dispatchReply) Fields(c *wire.Codec) {
	c.Value("result", &r.Result)
	c.Str("arrivalError", &r.ArrivalError)
}
func (r *statusReply) Fields(c *wire.Codec) { r.dispatchReply.Fields(c); c.Str("state", &r.State) }

// statusReq asks about a migration ID, or about an agent's whereabouts
// (agentReply).
type statusReq struct{ Site, MID, Agent string }
type agentReply AgentStatus

func (r *statusReq) Fields(c *wire.Codec) {
	c.Str("site", &r.Site)
	c.Str("mid", &r.MID)
	c.Str("agent", &r.Agent)
}
func (r *agentReply) Fields(c *wire.Codec) { c.Str("state", &r.State); c.Str("next", &r.Next) }

type probeReq core.Probe
type verdictReply core.Verdict

func (r *probeReq) Fields(c *wire.Codec) {
	ttl := int64(r.TTL)
	c.Str("initiator", &r.Initiator)
	c.Str("target", &r.Target)
	c.Int("ttl", &ttl)
	wire.List(c, "path", &r.Path, func(c *wire.Codec, st *core.ProbeStep) {
		c.Str("chain", &st.Chain)
		c.Str("site", &st.Site)
		c.Str("object", &st.Object)
		c.Str("holder", &st.Holder)
	})
	r.TTL = int(ttl)
}
func (r *verdictReply) Fields(c *wire.Codec) {
	c.Str("cycle", &r.Cycle)
	c.Str("victim", &r.Victim)
	c.Str("victim_obj", &r.VictimObj)
}
