package hadas

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/security"
	"repro/internal/transport"
	"repro/internal/value"
)

// newTestSite builds a site on an in-process network.
func newTestSite(t *testing.T, net *transport.InProcNet, name string) *Site {
	t.Helper()
	s, err := NewSite(Config{
		Name: name,
		Dial: func(addr string) (transport.Conn, error) { return net.Dial(addr) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ServeInProc(net); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// addEmployeeDB installs the paper's running example: a database APO whose
// methods return employee information.
func addEmployeeDB(t *testing.T, s *Site) *core.Object {
	t.Helper()
	b := s.NewAPOBuilder("EmployeeDB")
	b.FixedData("records", value.NewMap(map[string]value.Value{
		"alice": value.NewMap(map[string]value.Value{"salary": value.NewInt(12500), "dept": value.NewString("ee")}),
		"bob":   value.NewMap(map[string]value.Value{"salary": value.NewInt(9000), "dept": value.NewString("cs")}),
	}))
	b.FixedScriptMethod("query", `fn(name) {
		let recs = self.records;
		if !has(recs, name) { return "no such employee"; }
		return recs[name];
	}`)
	b.FixedScriptMethod("salaryOf", `fn(name) {
		let recs = self.records;
		if !has(recs, name) { return -1; }
		return recs[name]["salary"];
	}`)
	apo := b.MustBuild()
	if err := s.AddAPO("payroll", apo); err != nil {
		t.Fatal(err)
	}
	return apo
}

func TestNewSiteValidation(t *testing.T) {
	if _, err := NewSite(Config{}); err == nil {
		t.Error("nameless site accepted")
	}
	s, err := NewSite(Config{Name: "solo"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Name() != "solo" || s.Domain() != "solo" {
		t.Errorf("defaults: %q %q", s.Name(), s.Domain())
	}
	if s.IOO() == nil || s.Behaviors() == nil || s.Policy() == nil || s.Auditor() == nil || s.Generator() == nil {
		t.Error("accessors returned nil")
	}
}

func TestAPOManagement(t *testing.T) {
	net := transport.NewInProcNet()
	s := newTestSite(t, net, "tokyo")
	apo := addEmployeeDB(t, s)

	if got, err := s.APO("payroll"); err != nil || got != apo {
		t.Errorf("APO = %v, %v", got, err)
	}
	if _, err := s.APO("missing"); !errors.Is(err, ErrNoAPO) {
		t.Errorf("missing APO: %v", err)
	}
	if err := s.AddAPO("payroll", apo); !errors.Is(err, core.ErrExists) {
		t.Errorf("duplicate APO: %v", err)
	}
	names := s.APONames()
	if len(names) != 1 || names[0] != "payroll" {
		t.Errorf("APONames = %v", names)
	}
	// Resolver finds it by name and by ID.
	if got, err := s.ResolveObject("payroll"); err != nil || got != apo {
		t.Errorf("resolve by name: %v, %v", got, err)
	}
	if got, err := s.ResolveObject(apo.ID().String()); err != nil || got != apo {
		t.Errorf("resolve by id: %v, %v", got, err)
	}
	if _, err := s.ResolveObject("ghost"); err == nil {
		t.Error("resolved ghost")
	}
	// IOO view updated.
	home, err := s.IOO().Get(s.IOO().Principal(), "home")
	if err != nil {
		t.Fatal(err)
	}
	if home.String() != `["payroll"]` {
		t.Errorf("home = %v", home)
	}
	// Local invocation works through the model.
	v, err := apo.Invoke(s.IOO().Principal(), "salaryOf", value.NewString("alice"))
	if err != nil {
		t.Fatal(err)
	}
	if i, _ := v.Int(); i != 12500 {
		t.Errorf("salaryOf = %v", v)
	}
}

func TestLinkHandshake(t *testing.T) {
	net := transport.NewInProcNet()
	a := newTestSite(t, net, "tokyo")
	b := newTestSite(t, net, "osaka")

	peerName, err := a.Link("osaka")
	if err != nil {
		t.Fatal(err)
	}
	if peerName != "osaka" {
		t.Errorf("peer = %q", peerName)
	}
	// Both sides have Vicinity entries (link is mutual).
	if got := a.PeerNames(); len(got) != 1 || got[0] != "osaka" {
		t.Errorf("a peers = %v", got)
	}
	if got := b.PeerNames(); len(got) != 1 || got[0] != "tokyo" {
		t.Errorf("b peers = %v", got)
	}
	// Both sides host the other's IOO ambassador.
	if _, err := a.ResolveObject("ioo@osaka"); err != nil {
		t.Errorf("a vicinity ambassador: %v", err)
	}
	if _, err := b.ResolveObject("ioo@tokyo"); err != nil {
		t.Errorf("b vicinity ambassador: %v", err)
	}
	// Peer domains are graded Trusted.
	if lvl := a.Policy().Level("osaka"); lvl != security.Trusted {
		t.Errorf("trust of osaka at tokyo = %v", lvl)
	}
	// IOO vicinity view refreshed.
	vic, _ := a.IOO().Get(a.IOO().Principal(), "vicinity")
	if vic.String() != `["osaka"]` {
		t.Errorf("vicinity = %v", vic)
	}
	// Link to an unreachable address fails cleanly.
	if _, err := a.Link("nowhere"); err == nil {
		t.Error("link to nowhere succeeded")
	}
}

func TestLinkViaIOOMethod(t *testing.T) {
	net := transport.NewInProcNet()
	a := newTestSite(t, net, "tokyo")
	newTestSite(t, net, "osaka")

	// The IOO exposes link as a model method, gated to local callers.
	v, err := a.IOO().InvokeSelf("link", value.NewString("osaka"))
	if err != nil {
		t.Fatal(err)
	}
	if v.String() != "osaka" {
		t.Errorf("link = %v", v)
	}
	// A non-local caller is rejected by the admin ACL.
	outsider := security.Principal{Object: a.Generator().New(), Domain: "elsewhere"}
	if _, err := a.IOO().Invoke(outsider, "link", value.NewString("osaka")); !errors.Is(err, security.ErrDenied) {
		t.Errorf("outsider link: %v", err)
	}
}

func TestImportAndRelayedInvocation(t *testing.T) {
	net := transport.NewInProcNet()
	a := newTestSite(t, net, "tokyo") // importing host
	b := newTestSite(t, net, "osaka") // origin
	addEmployeeDB(t, b)

	if _, err := a.Link("osaka"); err != nil {
		t.Fatal(err)
	}
	localName, err := a.Import("osaka", "payroll")
	if err != nil {
		t.Fatal(err)
	}
	if localName != "payroll@osaka" {
		t.Errorf("localName = %q", localName)
	}
	amb, err := a.ResolveObject(localName)
	if err != nil {
		t.Fatal(err)
	}
	// Installation context was delivered by the importing IOO.
	ctxV, err := amb.Get(amb.Principal(), "context")
	if err != nil {
		t.Fatal(err)
	}
	cm, _ := ctxV.Map()
	if cm["hostSite"].String() != "tokyo" || cm["localName"].String() != localName {
		t.Errorf("install context = %v", ctxV)
	}
	// Ownership invariants of Figure 2: one origin, one host.
	origin, _ := amb.Get(amb.Principal(), "originSite")
	if origin.String() != "osaka" {
		t.Errorf("originSite = %v", origin)
	}
	if deps := b.Deployments("payroll"); len(deps) != 1 || deps[0] != "tokyo" {
		t.Errorf("deployments = %v", deps)
	}

	// A local client invokes through the ambassador; the call relays to
	// the origin APO.
	client := security.Principal{Object: a.Generator().New(), Domain: a.Domain()}
	v, err := amb.Invoke(client, "salaryOf", value.NewString("alice"))
	if err != nil {
		t.Fatal(err)
	}
	if i, _ := v.Int(); i != 12500 {
		t.Errorf("relayed salaryOf = %v", v)
	}
	v, err = amb.Invoke(client, "query", value.NewString("ghost"))
	if err != nil {
		t.Fatal(err)
	}
	if v.String() != "no such employee" {
		t.Errorf("relayed query = %v", v)
	}

	// The host cannot manipulate the ambassador's structure: mutating
	// meta-methods are hidden (encapsulation) and ACL-gated (security).
	if _, err := amb.Invoke(client, "setMethod", value.NewString("salaryOf"),
		value.NewMap(map[string]value.Value{"body": value.NewString(`fn() { return 0; }`)})); err == nil {
		t.Error("host rewrote ambassador method")
	}

	// Import from an unlinked site fails.
	if _, err := a.Import("kyoto", "payroll"); !errors.Is(err, ErrNotLinked) {
		t.Errorf("import from unlinked: %v", err)
	}
	// Import of a missing APO fails.
	if _, err := a.Import("osaka", "nothing"); err == nil ||
		!strings.Contains(err.Error(), "no such APO") {
		t.Errorf("import missing APO: %v", err)
	}
}

func TestExportACL(t *testing.T) {
	net := transport.NewInProcNet()
	a := newTestSite(t, net, "tokyo")
	b := newTestSite(t, net, "osaka")
	addEmployeeDB(t, b)
	// Only the "kyoto" domain may import payroll.
	b.SetExportACL("payroll", security.NewACL(security.AllowDomain("kyoto"), security.DenyAll()))

	if _, err := a.Link("osaka"); err != nil {
		t.Fatal(err)
	}
	_, err := a.Import("osaka", "payroll")
	if err == nil || !strings.Contains(err.Error(), "not exportable") {
		t.Errorf("gated import: %v", err)
	}
	// Opening the ACL allows it.
	b.SetExportACL("payroll", security.NewACL(security.AllowDomain("tokyo")))
	if _, err := a.Import("osaka", "payroll"); err != nil {
		t.Errorf("allowed import: %v", err)
	}
}

func TestAmbassadorSpecScriptsAndCopyData(t *testing.T) {
	net := transport.NewInProcNet()
	a := newTestSite(t, net, "tokyo")
	b := newTestSite(t, net, "osaka")
	addEmployeeDB(t, b)
	// Fat split: salary lookups run locally at the host over copied
	// records; query stays relayed.
	b.SetAmbassadorSpec("payroll", AmbassadorSpec{
		Relay:    []string{"query"},
		CopyData: []string{"records"},
		Scripts: map[string]string{
			"salaryOf": `fn(name) {
				let recs = self.records;
				if !has(recs, name) { return -1; }
				return recs[name]["salary"];
			}`,
		},
	})
	if _, err := a.Link("osaka"); err != nil {
		t.Fatal(err)
	}
	localName, err := a.Import("osaka", "payroll")
	if err != nil {
		t.Fatal(err)
	}
	amb, _ := a.ResolveObject(localName)
	client := security.Principal{Object: a.Generator().New(), Domain: a.Domain()}

	// Local execution: works even if we cut the wire.
	if err := a.SetPeerConn("osaka", &transport.FaultConn{Inner: nil, FailEvery: 1}); err != nil {
		t.Fatal(err)
	}
	v, err := amb.Invoke(client, "salaryOf", value.NewString("bob"))
	if err != nil {
		t.Fatal(err)
	}
	if i, _ := v.Int(); i != 9000 {
		t.Errorf("local salaryOf = %v", v)
	}
	// The relayed method now fails (wire cut) — proving the split.
	if _, err := amb.Invoke(client, "query", value.NewString("bob")); !errors.Is(err, transport.ErrInjected) {
		t.Errorf("relayed query with cut wire: %v", err)
	}
}

// TestDefaultAmbassadorRelaysNoMetaName: without a spec, an Ambassador
// relays the APO's whole interface except every name core reserves for
// the meta interface — the host's own meta-methods answer those.
func TestDefaultAmbassadorRelaysNoMetaName(t *testing.T) {
	s := newTestSite(t, transport.NewInProcNet(), "osaka")
	apo := addEmployeeDB(t, s)
	relay := s.ambassadorSpec(apo, "payroll").Relay
	reserved := 0
	for _, m := range apo.MethodNames(apo.Principal()) {
		if core.IsReservedName(m) {
			reserved++
			if slices.Contains(relay, m) {
				t.Errorf("default ambassador relays meta-method %q", m)
			}
		} else if !slices.Contains(relay, m) {
			t.Errorf("default ambassador drops method %q", m)
		}
	}
	if reserved < 15 || !core.IsReservedName("invokeNext") {
		t.Errorf("saw %d reserved names in the APO's interface, want the 15 meta-methods", reserved)
	}
	if len(relay) != 2 {
		t.Errorf("relay = %v, want query and salaryOf", relay)
	}
}

func TestVicinityAmbassadorRelaysQueries(t *testing.T) {
	net := transport.NewInProcNet()
	a := newTestSite(t, net, "tokyo")
	b := newTestSite(t, net, "osaka")
	addEmployeeDB(t, b)
	if _, err := a.Link("osaka"); err != nil {
		t.Fatal(err)
	}
	// Ask the remote IOO (through its Vicinity ambassador) what it hosts.
	amb, err := a.ResolveObject("ioo@osaka")
	if err != nil {
		t.Fatal(err)
	}
	v, err := amb.Invoke(a.IOO().Principal(), "apos")
	if err != nil {
		t.Fatal(err)
	}
	if v.String() != `["payroll"]` {
		t.Errorf("remote apos = %v", v)
	}
}

func TestInteropPrograms(t *testing.T) {
	net := transport.NewInProcNet()
	a := newTestSite(t, net, "tokyo")
	b := newTestSite(t, net, "osaka")
	addEmployeeDB(t, b)
	if _, err := a.Link("osaka"); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Import("osaka", "payroll"); err != nil {
		t.Fatal(err)
	}

	// A coordination program spanning Home and hosted ambassadors: total
	// payroll across employees, via the imported ambassador.
	err := a.AddProgram("totalPayroll", `fn(names) {
		let db = ctx.lookup("payroll@osaka");
		let total = 0;
		for n in names {
			let s = db.salaryOf(n);
			if s > 0 { total = total + s; }
		}
		return total;
	}`)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.ProgramNames(); len(got) != 1 || got[0] != "totalPayroll" {
		t.Errorf("ProgramNames = %v", got)
	}
	v, err := a.RunProgram("totalPayroll",
		value.NewListOf(value.NewString("alice"), value.NewString("bob"), value.NewString("ghost")))
	if err != nil {
		t.Fatal(err)
	}
	if i, _ := v.Int(); i != 21500 {
		t.Errorf("totalPayroll = %v", v)
	}

	// Programs are listed in the IOO's interop view.
	interop, _ := a.IOO().Get(a.IOO().Principal(), "interop")
	if interop.String() != `["totalPayroll"]` {
		t.Errorf("interop = %v", interop)
	}

	// Cross-site program execution through the Vicinity ambassador.
	if err := b.AddProgram("hello", `fn() { return "from osaka"; }`); err != nil {
		t.Fatal(err)
	}
	remoteIOO, _ := a.ResolveObject("ioo@osaka")
	v, err = remoteIOO.Invoke(a.IOO().Principal(), "runProgram", value.NewString("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if v.String() != "from osaka" {
		t.Errorf("remote program = %v", v)
	}

	// Removal.
	if err := a.RemoveProgram("totalPayroll"); err != nil {
		t.Fatal(err)
	}
	if len(a.ProgramNames()) != 0 {
		t.Errorf("programs after removal: %v", a.ProgramNames())
	}
	if _, err := a.RunProgram("totalPayroll"); !errors.Is(err, core.ErrNotFound) {
		t.Errorf("removed program: %v", err)
	}
	// Bad program sources are rejected.
	if err := a.AddProgram("bad", "not a function"); err == nil {
		t.Error("bad program accepted")
	}
}

func TestReimportRefreshesAmbassador(t *testing.T) {
	net := transport.NewInProcNet()
	a := newTestSite(t, net, "tokyo")
	b := newTestSite(t, net, "osaka")
	addEmployeeDB(t, b)
	if _, err := a.Link("osaka"); err != nil {
		t.Fatal(err)
	}
	name1, err := a.Import("osaka", "payroll")
	if err != nil {
		t.Fatal(err)
	}
	first, err := a.ResolveObject(name1)
	if err != nil {
		t.Fatal(err)
	}
	// Re-import: same local name, fresh ambassador, old one retired.
	name2, err := a.Import("osaka", "payroll")
	if err != nil {
		t.Fatalf("re-import: %v", err)
	}
	if name2 != name1 {
		t.Errorf("names differ: %q vs %q", name1, name2)
	}
	second, err := a.ResolveObject(name2)
	if err != nil {
		t.Fatal(err)
	}
	if second == first || second.ID() == first.ID() {
		t.Error("re-import did not refresh the ambassador")
	}
	if _, err := a.ResolveObject(first.ID().String()); err == nil {
		t.Error("retired ambassador still registered")
	}
	// The origin now records both deployments (history), and the fresh
	// ambassador works.
	client := security.Principal{Object: a.Generator().New(), Domain: a.Domain()}
	v, err := second.Invoke(client, "salaryOf", value.NewString("alice"))
	if err != nil {
		t.Fatal(err)
	}
	if i, _ := v.Int(); i != 12500 {
		t.Errorf("refreshed ambassador salaryOf = %v", v)
	}
}

func TestUnlink(t *testing.T) {
	net := transport.NewInProcNet()
	a := newTestSite(t, net, "tokyo")
	b := newTestSite(t, net, "osaka")
	addEmployeeDB(t, b)
	if _, err := a.Link("osaka"); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Import("osaka", "payroll"); err != nil {
		t.Fatal(err)
	}
	amb, err := a.ResolveObject("payroll@osaka")
	if err != nil {
		t.Fatal(err)
	}

	if err := a.Unlink("osaka"); err != nil {
		t.Fatal(err)
	}
	if len(a.PeerNames()) != 0 {
		t.Errorf("peers after unlink = %v", a.PeerNames())
	}
	if _, err := a.ResolveObject("ioo@osaka"); err == nil {
		t.Error("vicinity ambassador survived unlink")
	}
	// Hosted APO ambassadors remain but their relays fail cleanly.
	client := security.Principal{Object: a.Generator().New(), Domain: a.Domain()}
	if _, err := amb.Invoke(client, "salaryOf", value.NewString("alice")); err == nil {
		t.Error("relay through unlinked peer succeeded")
	} else if !strings.Contains(err.Error(), "not linked") {
		t.Errorf("relay error = %v", err)
	}
	// Idempotence / unknown peers.
	if err := a.Unlink("osaka"); !errors.Is(err, ErrNotLinked) {
		t.Errorf("double unlink = %v", err)
	}
	// Relinking restores service.
	if _, err := a.Link("osaka"); err != nil {
		t.Fatal(err)
	}
	if _, err := amb.Invoke(client, "salaryOf", value.NewString("alice")); err != nil {
		t.Errorf("relay after relink: %v", err)
	}
	// The origin side is untouched by our unlink (autonomy).
	if got := b.PeerNames(); len(got) != 1 || got[0] != "tokyo" {
		t.Errorf("origin peers = %v", got)
	}
}
