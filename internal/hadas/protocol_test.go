package hadas

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/transport"
	"repro/internal/value"
	"repro/internal/wire"
)

// rawCall sends payload straight to a site's endpoint and reads an invoke
// reply's outcome the way invokeRemote does, so every refusal is an error.
func rawCall(conn transport.Conn, verb string, payload []byte) (value.Value, error) {
	out, err := conn.Call(context.Background(), verb, payload)
	if err != nil || verb != verbInvoke {
		return value.Null, err
	}
	var rep invokeReply
	if err := wire.DecodeRecord(out, rep.Fields); err != nil {
		return value.Null, err
	}
	return rep.result()
}

// rawRecord is a record written by hand: a list of wire values, so a test
// can shorten it, lengthen it or put a field of the wrong kind in it.
func rawRecord(fields ...value.Value) []byte { return wire.EncodeValue(value.NewList(fields)) }

func str(s string) value.Value { return value.NewString(s) }

// TestProtocolRejectsGarbage drives the site endpoint with hostile inputs.
// Each case must fail at the check it names, as a remote error, and the
// site must keep serving.
func TestProtocolRejectsGarbage(t *testing.T) {
	net := transport.NewInProcNet()
	s := newTestSite(t, net, "fortress")
	addEmployeeDB(t, s)
	peer := newTestSite(t, net, "fortress2")
	if _, err := peer.Link("fortress"); err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("fortress")
	if err != nil {
		t.Fatal(err)
	}
	id := peer.IOO().ID()
	invoke := func(caller []byte, target value.Value) []byte {
		return rawRecord(str("fortress2"), value.NewBytes(caller), target, str("salaryOf"), value.NewListOf(str("alice")))
	}
	enc := func(fields func(*wire.Codec)) []byte { return wire.EncodeRecord(fields) }
	stray, err := inertAgent(t, peer, "stray").Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, verb string
		payload    []byte
		want       string
	}{
		{"binary garbage", verbInvoke, []byte{0xFF, 0xFE, 0xFD}, wire.ErrCodec.Error()},
		{"empty payload", verbInvoke, nil, wire.ErrCodec.Error()},
		{"non-map request", verbInvoke, wire.EncodeValue(value.NewInt(7)), "not a record"},
		{"old map-shaped request", verbInvoke, wire.EncodeValue(value.NewMap(map[string]value.Value{
			"site": str("fortress2"), "caller": str(id.String()), "target": str("payroll"), "method": str("salaryOf"),
		})), "map-shaped"},
		{"unknown verb", "hadas.selfdestruct", enc((&invokeReq{}).Fields), "unknown verb"},
		{"invoke without fields", verbInvoke, rawRecord(), ErrNotLinked.Error()},
		{"invoke bad caller id", verbInvoke, invoke(id[:15], str("payroll")), "caller is not a 16-byte id"},
		{"invoke caller id of 17 bytes", verbInvoke, invoke(append(id[:], 0), str("payroll")), "caller is not a 16-byte id"},
		{"wrong field kind", verbInvoke, invoke(id[:], value.NewInt(1)), "target is not a string"},
		{"export without link", verbExport, enc((&exportReq{Site: "unlinked", APO: "payroll"}).Fields), ErrNotLinked.Error()},
		{"link with own name", verbLink, enc((&linkReq{linkReply: linkReply{Site: "fortress"}}).Fields), "bad peer name"},
		{"link with empty name", verbLink, rawRecord(), "bad peer name"},
		{"dispatch without link", verbDispatch, enc((&dispatchReq{Site: "unlinked", Name: "x"}).Fields), ErrNotLinked.Error()},
		{"dispatch without a migration id", verbDispatch, enc((&dispatchReq{Site: "fortress2", Name: "stray",
			Agent: wire.EncodeImage(stray)}).Fields), "migration id"},
		{"link with garbage ambassador", verbLink, enc((&linkReq{linkReply: linkReply{Site: "mallory",
			IOO: []byte("not an image")}}).Fields), "peer IOO ambassador"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := rawCall(conn, tc.verb, tc.payload)
			var re *transport.RemoteError
			if !errors.As(err, &re) || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("got %v, want a RemoteError naming %q", err, tc.want)
			}
		})
	}

	// The dispatch without a migration id installed nothing and journaled
	// nothing: every arrival has a dedup record.
	if _, err := s.ResolveObject("stray"); err == nil {
		t.Error("a dispatch without a migration id installed its agent")
	}
	if recs := s.ArrivalRecords(); len(recs) != 0 {
		t.Errorf("arrival records = %v, want none", recs)
	}

	// A record cut at every byte is refused as a codec error.
	full := invoke(id[:], str("payroll"))
	for n := 0; n < len(full); n++ {
		if _, err := rawCall(conn, verbInvoke, full[:n]); err == nil || !strings.Contains(err.Error(), wire.ErrCodec.Error()) {
			t.Fatalf("record cut to %d of %d bytes: %v, want a codec error", n, len(full), err)
		}
	}

	// The site is still serving after the abuse, the wire included.
	for _, payload := range [][]byte{full, enc((&invokeReq{"fortress2", id, "payroll", "salaryOf", []value.Value{str("alice")}}).Fields)} {
		if v, err := rawCall(conn, verbInvoke, payload); err != nil {
			t.Fatal(err)
		} else if i, _ := v.Int(); i != 12500 {
			t.Errorf("site degraded after garbage: %v", v)
		}
	}
}

// TestRecordVersioningRule: a record with a field past the known ones is
// read with that field dropped, and one missing its trailing field reads
// the field as zero — here no arguments, so the script's parameter is null.
func TestRecordVersioningRule(t *testing.T) {
	net := transport.NewInProcNet()
	origin := newTestSite(t, net, "versioned")
	peer := newTestSite(t, net, "caller-site")
	addEmployeeDB(t, origin)
	if _, err := peer.Link("versioned"); err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("versioned")
	if err != nil {
		t.Fatal(err)
	}
	id := peer.IOO().ID()
	head := []value.Value{str("caller-site"), value.NewBytes(id[:]), str("payroll"), str("salaryOf")}
	longer := rawRecord(append(head, value.NewListOf(str("alice")), value.NewMap(map[string]value.Value{"later": value.True}))...)
	if v, err := rawCall(conn, verbInvoke, longer); err != nil {
		t.Errorf("record with an extra field: %v", err)
	} else if i, _ := v.Int(); i != 12500 {
		t.Errorf("record with an extra field: salaryOf = %v", v)
	}
	if v, err := rawCall(conn, verbInvoke, rawRecord(head...)); err != nil {
		t.Errorf("record without its args field: %v", err)
	} else if i, _ := v.Int(); i != -1 {
		t.Errorf("record without its args field: salaryOf = %v, want -1 (no such employee)", v)
	}
}

// TestInvokeVerbRejectsMalformedArgs: a record whose args field is present
// but not a list is a protocol error (core.ErrArity naming the field), not
// an empty argument list — silently coercing it would invoke the method
// with the wrong arity. A null args field stays a legal empty list.
func TestInvokeVerbRejectsMalformedArgs(t *testing.T) {
	net := transport.NewInProcNet()
	origin := newTestSite(t, net, "strict")
	peer := newTestSite(t, net, "caller-site")
	addEmployeeDB(t, origin)
	if _, err := peer.Link("strict"); err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("strict")
	if err != nil {
		t.Fatal(err)
	}
	id := peer.IOO().ID()
	args := func(v value.Value) []byte {
		return rawRecord(str("caller-site"), value.NewBytes(id[:]), str("payroll"), str("salaryOf"), v)
	}
	_, err = rawCall(conn, verbInvoke, args(str("alice"))) // scalar, not a list
	var re *transport.RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("got %v, want RemoteError", err)
	}
	if !strings.Contains(re.Error(), "args is not a list") {
		t.Errorf("error %q does not name the malformed args field", re.Error())
	}
	if _, err := rawCall(conn, verbInvoke, args(value.Null)); err != nil {
		t.Errorf("null args rejected: %v", err)
	}
}

// TestInvokeVerbEnforcesPeerDomain: the handler assigns the caller's trust
// domain from the link agreement, not from anything the payload claims —
// a remote caller cannot self-grade.
func TestInvokeVerbEnforcesPeerDomain(t *testing.T) {
	net := transport.NewInProcNet()
	origin := newTestSite(t, net, "guarded")
	peer := newTestSite(t, net, "lowtrust")
	addEmployeeDB(t, origin)
	if _, err := peer.Link("guarded"); err != nil {
		t.Fatal(err)
	}
	// Downgrade the peer's domain after linking.
	origin.Policy().GradeDomain("lowtrust", 0) // security.Untrusted

	// A direct protocol call claiming a caller id: the handler maps the
	// domain from the peer table, so the policy denies it.
	conn, err := net.Dial("guarded")
	if err != nil {
		t.Fatal(err)
	}
	req := invokeReq{"lowtrust", peer.IOO().ID(), "payroll", "query", []value.Value{str("alice")}}
	if _, err := rawCall(conn, verbInvoke, wire.EncodeRecord(req.Fields)); err == nil || !strings.Contains(err.Error(), "access denied") {
		t.Errorf("downgraded peer invoked through the wire: %v, want access denied", err)
	}
}
