package repro

// One benchmark group per experiment/figure of the reproduction (see
// DESIGN.md §2). `go test -bench 'Fig|E[0-9]' -benchmem .` regenerates
// every series EXPERIMENTS.md quotes.

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/hadas"
	"repro/internal/persist"
	"repro/internal/security"
	"repro/internal/value"
	"repro/internal/wire"
)

// ---- E1 / Figure 1: meta-invocation levels ----

func BenchmarkFig1_InvocationLevels(b *testing.B) {
	caller := experiments.Stranger()
	arg := value.NewInt(7)
	for levels := 0; levels <= 3; levels++ {
		b.Run(fmt.Sprintf("levels=%d", levels), func(b *testing.B) {
			obj := experiments.BenchObject(4, 4)
			if err := experiments.AddInvokeLevels(obj, levels); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := obj.Invoke(caller, "work", arg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- E2 / Figure 2: HADAS topology, relayed invocation ----

func BenchmarkFig2_Topology(b *testing.B) {
	host, origin, cleanup, err := experiments.TwoSites()
	if err != nil {
		b.Fatal(err)
	}
	defer cleanup()
	if _, err := host.Import("bench-origin", "payroll"); err != nil {
		b.Fatal(err)
	}
	amb, err := host.ResolveObject("payroll@bench-origin")
	if err != nil {
		b.Fatal(err)
	}
	apo, err := origin.APO("payroll")
	if err != nil {
		b.Fatal(err)
	}
	client := security.Principal{Object: host.Generator().New(), Domain: host.Domain()}
	who := value.NewString("alice")

	b.Run("direct-apo", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := apo.Invoke(client, "salaryOf", who); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("relayed-ambassador", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := amb.Invoke(client, "salaryOf", who); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---- E3: invocation cost vs baselines ----

func BenchmarkE3_DirectGoCall(b *testing.B) {
	fn := func(a []value.Value) value.Value { return a[0] }
	args := []value.Value{value.NewInt(1)}
	for i := 0; i < b.N; i++ {
		_ = fn(args)
	}
}

func BenchmarkE3_MapDispatch(b *testing.B) {
	md := experiments.NewMapDispatch()
	args := []value.Value{value.NewInt(1)}
	for i := 0; i < b.N; i++ {
		_ = md.Call("work", args)
	}
}

func BenchmarkE3_MROMFixedMethod(b *testing.B) {
	obj := experiments.BenchObject(4, 4)
	caller := experiments.Stranger()
	arg := value.NewInt(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := obj.Invoke(caller, "work", arg); err != nil {
			b.Fatal(err)
		}
	}
}

// Cold variant: flushing the dispatch cache every iteration measures the
// full Lookup+Match slow path (the pre-cache cost, plus the refill).
func BenchmarkE3_MROMFixedMethodCold(b *testing.B) {
	obj := experiments.BenchObject(4, 4)
	caller := experiments.Stranger()
	arg := value.NewInt(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		obj.FlushDispatchCache()
		if _, err := obj.Invoke(caller, "work", arg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE3_MROMExtensibleMethod(b *testing.B) {
	obj := experiments.BenchObject(4, 4)
	caller := experiments.Stranger()
	arg := value.NewInt(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := obj.Invoke(caller, "workExt", arg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE3_MROMSelfInvocation(b *testing.B) {
	obj := experiments.BenchObject(4, 4)
	arg := value.NewInt(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := obj.InvokeSelf("work", arg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE3_MROMInvokeMetaMethod(b *testing.B) {
	obj := experiments.BenchObject(4, 4)
	caller := experiments.Stranger()
	name := value.NewString("work")
	args := value.NewListOf(value.NewInt(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := obj.Invoke(caller, "invoke", name, args); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE3_MROMScriptMethod(b *testing.B) {
	gen := experiments.Gen
	builder := core.NewBuilder(gen, "ScriptBench", core.WithPolicy(experiments.OpenPolicy()))
	builder.FixedScriptMethod("work", `fn(x) { return x; }`)
	obj := builder.MustBuild()
	caller := experiments.Stranger()
	arg := value.NewInt(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := obj.Invoke(caller, "work", arg); err != nil {
			b.Fatal(err)
		}
	}
}

// The warm fixed method of a site-built APO, which carries its site's
// Auditor, called by eight rotating callers of the site's domain: each
// call is served from the site policy's verdict table. Disarmed, the allow
// is recorded nowhere; armed, each call pays one Auditor.Record.
func BenchmarkE3_MROMAuditedForeignCall(b *testing.B) {
	site, err := hadas.NewSite(hadas.Config{Name: "audited"})
	if err != nil {
		b.Fatal(err)
	}
	defer site.Close()
	site.Behaviors().Register("bench.echo", func(_ *core.Invocation, args []value.Value) (value.Value, error) {
		return args[0], nil
	})
	echo, err := site.Behaviors().Lookup("bench.echo")
	if err != nil {
		b.Fatal(err)
	}
	builder := site.NewAPOBuilder("Audited")
	builder.FixedMethod("work", echo)
	obj := builder.MustBuild()
	var callers [8]security.Principal
	for i := range callers {
		callers[i] = security.Principal{Object: experiments.Gen.New(), Domain: site.Domain()}
	}
	arg := value.NewInt(1)
	for _, link := range []*security.Auditor{nil, security.NewAuditor(256)} {
		name := "disarmed"
		if link != nil {
			name = "armed"
		}
		b.Run(name, func(b *testing.B) {
			obj.ArmAudit(link)
			for i := 0; i < 2*len(callers); i++ { // the table's fill, every verdict
				if _, err := obj.Invoke(callers[i%len(callers)], "work", arg); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := obj.Invoke(callers[i%len(callers)], "work", arg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// The relay-script workload's body — an interpreted method with a loop —
// invoked on a built object: 64 records, 16 keys per call.
func BenchmarkE3_MROMScriptQuote(b *testing.B) {
	obj, keys := experiments.CatalogObject(64, 16)
	caller := experiments.Stranger()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := obj.Invoke(caller, "quote", keys); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E4: fixed offset vs lookup ----

func BenchmarkE4_GoStructField(b *testing.B) {
	gs := &experiments.GoStruct{F2: 3}
	var sink int64
	for i := 0; i < b.N; i++ {
		sink += gs.F2
	}
	_ = sink
}

func BenchmarkE4_Get(b *testing.B) {
	caller := experiments.Stranger()
	for _, n := range []int{4, 64, 1024} {
		obj := experiments.BenchObject(n, n)
		fixedName := value.NewString(fmt.Sprintf("f%04d", n/2))
		extName := value.NewString(fmt.Sprintf("e%04d", n/2))
		b.Run(fmt.Sprintf("fixed-%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := obj.Invoke(caller, "get", fixedName); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("ext-%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := obj.Invoke(caller, "get", extName); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("fixed-%d-cold", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				obj.FlushDispatchCache()
				if _, err := obj.Invoke(caller, "get", fixedName); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkE4_Set(b *testing.B) {
	obj := experiments.BenchObject(64, 64)
	caller := experiments.Stranger()
	name := value.NewString("e0001")
	v := value.NewInt(9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := obj.Invoke(caller, "set", name, v); err != nil {
			b.Fatal(err)
		}
	}
}

// A handle is a function of its item: asking getDataItem for the handles
// of 1, 16 or 512 distinct items of one object costs the same per ask,
// however many handles are out.
func BenchmarkGetDataItemHandles(b *testing.B) {
	obj := experiments.BenchObject(0, 512)
	caller := experiments.Stranger()
	names := make([]value.Value, 512)
	for i := range names {
		names[i] = value.NewString(fmt.Sprintf("e%04d", i))
	}
	for _, asked := range []int{1, 16, 512} {
		b.Run(fmt.Sprintf("asked=%d", asked), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := obj.Invoke(caller, "getDataItem", names[i%asked]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- E5: ACL match cost ----

func BenchmarkE5_ACLScan(b *testing.B) {
	caller := experiments.Stranger()
	arg := value.NewInt(1)
	for _, n := range []int{0, 16, 256, 1024} {
		obj := experiments.ACLObject(n, security.AllowObject(caller.Object))
		b.Run(fmt.Sprintf("entries=%d", n+1), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := obj.Invoke(caller, "work", arg); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("entries=%d-cold", n+1), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				obj.FlushDispatchCache()
				if _, err := obj.Invoke(caller, "work", arg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkE5_PolicyDefault(b *testing.B) {
	obj := experiments.BenchObject(1, 1)
	caller := experiments.Stranger()
	arg := value.NewInt(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := obj.Invoke(caller, "work", arg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE5_Denied(b *testing.B) {
	obj := experiments.ACLObject(0, security.DenyAll())
	caller := experiments.Stranger()
	arg := value.NewInt(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := obj.Invoke(caller, "work", arg); err == nil {
			b.Fatal("denied call succeeded")
		}
	}
}

// ---- E6: wrapping ----

func BenchmarkE6_Wrapping(b *testing.B) {
	caller := experiments.Stranger()
	arg := value.NewInt(1)
	for _, cfg := range []struct {
		name      string
		pre, post bool
	}{
		{"bare", false, false},
		{"pre", true, false},
		{"post", false, true},
		{"pre+post", true, true},
	} {
		obj := experiments.WrappedObject(cfg.pre, cfg.post)
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := obj.Invoke(caller, "work", arg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkE6_ChargingMetaLevel(b *testing.B) {
	obj := experiments.BenchObject(4, 4)
	if _, err := obj.InvokeSelf("setMethod", value.NewString("invoke"),
		value.NewMap(map[string]value.Value{
			"body": core.DescriptorToValue(core.BodyDescriptor{Kind: core.BodyNative, Name: "bench.pass"}),
			"pre":  core.DescriptorToValue(core.BodyDescriptor{Kind: core.BodyNative, Name: "bench.true"}),
		})); err != nil {
		b.Fatal(err)
	}
	caller := experiments.Stranger()
	arg := value.NewInt(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := obj.Invoke(caller, "work", arg); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E7: migration pipeline ----

func BenchmarkE7_MigrationPipeline(b *testing.B) {
	for _, size := range []struct{ items, scripts int }{
		{8, 2}, {64, 4}, {512, 8},
	} {
		obj := experiments.MigrationObject(size.items, size.scripts, 8)
		img, err := obj.Snapshot()
		if err != nil {
			b.Fatal(err)
		}
		enc := wire.EncodeImage(img)
		label := fmt.Sprintf("items=%d,scripts=%d", size.items, size.scripts)
		b.Run("snapshot/"+label, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := obj.Snapshot(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("encode/"+label, func(b *testing.B) {
			b.SetBytes(int64(len(enc)))
			for i := 0; i < b.N; i++ {
				_ = wire.EncodeImage(img)
			}
		})
		b.Run("decode/"+label, func(b *testing.B) {
			b.SetBytes(int64(len(enc)))
			for i := 0; i < b.N; i++ {
				if _, err := wire.DecodeImage(enc); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("materialize/"+label, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.FromImage(img, nil, core.HostPolicy(experiments.OpenPolicy())); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkE7_FullImport(b *testing.B) {
	host, _, cleanup, err := experiments.TwoSites()
	if err != nil {
		b.Fatal(err)
	}
	defer cleanup()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := host.Import("bench-origin", "payroll"); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E8: dynamic update availability (throughput while flipping) ----

func BenchmarkE8_QueryDuringUpdates(b *testing.B) {
	host, origin, cleanup, err := experiments.TwoSites()
	if err != nil {
		b.Fatal(err)
	}
	defer cleanup()
	if _, err := host.Import("bench-origin", "payroll"); err != nil {
		b.Fatal(err)
	}
	amb, err := host.ResolveObject("payroll@bench-origin")
	if err != nil {
		b.Fatal(err)
	}
	client := security.Principal{Object: host.Generator().New(), Domain: host.Domain()}
	who := value.NewString("alice")
	maintenance := false
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%100 == 99 {
			// Flip maintenance mode every 100 queries.
			b.StopTimer()
			if maintenance {
				if _, err := origin.UpdateAmbassadors("payroll", "deleteMethod",
					value.NewString("invoke")); err != nil {
					b.Fatal(err)
				}
			} else {
				if _, err := origin.UpdateAmbassadors("payroll", "setMethod",
					value.NewString("invoke"),
					value.NewMap(map[string]value.Value{
						"body": value.NewString(`fn(name, callArgs) {
							if name == "deleteMethod" || name == "setMethod" {
								return self.invokeNext(name, callArgs);
							}
							return "maintenance";
						}`),
					})); err != nil {
					b.Fatal(err)
				}
			}
			maintenance = !maintenance
			b.StartTimer()
		}
		if _, err := amb.Invoke(client, "salaryOf", who); err != nil {
			b.Fatal(err) // hard failures must never happen
		}
	}
}

// ---- E9: coercion ----

func BenchmarkE9_Coercion(b *testing.B) {
	cases := []struct {
		name string
		in   value.Value
		to   value.Kind
	}{
		{"int-identity", value.NewInt(5), value.KindInt},
		{"float-to-int", value.NewFloat(3.9), value.KindInt},
		{"string-to-int", value.NewString("12345"), value.KindInt},
		{"html-to-int", value.NewString("<td><b>Salary:</b> $12,500</td>"), value.KindInt},
		{"int-to-string", value.NewInt(12345), value.KindString},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := value.Coerce(c.in, c.to); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- E10: persistence ----

func BenchmarkE10_Persistence(b *testing.B) {
	for _, size := range []struct{ items, scripts int }{
		{8, 2}, {64, 4}, {512, 8},
	} {
		obj := experiments.MigrationObject(size.items, size.scripts, 8)
		store := persist.NewMemStore()
		if err := persist.SaveObject(store, obj); err != nil {
			b.Fatal(err)
		}
		slot := obj.ID().String()
		label := fmt.Sprintf("items=%d,scripts=%d", size.items, size.scripts)
		b.Run("save/"+label, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := persist.SaveObject(store, obj); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("bootstrap/"+label, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := persist.LoadObject(store, slot, nil,
					core.HostPolicy(experiments.OpenPolicy())); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Ablations: the design choices DESIGN.md calls out ----

// Ablation: per-call cost of the Serialized() admission gate. Both
// objects carry the identical script body; only the admission differs.
func BenchmarkAblation_SerializedAdmission(b *testing.B) {
	caller := experiments.Stranger()
	arg := value.NewInt(1)
	gen := experiments.Gen
	build := func(serialized bool) *core.Object {
		opts := []core.BuildOption{core.WithPolicy(experiments.OpenPolicy())}
		if serialized {
			opts = append(opts, core.Serialized())
		}
		sb := core.NewBuilder(gen, "AdmissionBench", opts...)
		sb.FixedScriptMethod("work", `fn(x) { return x; }`)
		return sb.MustBuild()
	}
	for _, cfg := range []struct {
		name       string
		serialized bool
	}{{"plain", false}, {"serialized", true}} {
		obj := build(cfg.serialized)
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := obj.Invoke(caller, "work", arg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Ablation: atomic invocation (checkpoint + rollback machinery) vs plain,
// by extensible-section size (the checkpoint copies it).
func BenchmarkAblation_AtomicCheckpoint(b *testing.B) {
	caller := experiments.Stranger()
	arg := value.NewInt(1)
	for _, n := range []int{4, 64, 512} {
		obj := experiments.BenchObject(4, n)
		b.Run(fmt.Sprintf("plain-ext=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := obj.Invoke(caller, "work", arg); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("atomic-ext=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := obj.InvokeAtomic(caller, "work", arg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Ablation: denial paths — hidden item (encapsulation, reads as not
// found) vs ACL deny vs policy deny.
func BenchmarkAblation_DenialPaths(b *testing.B) {
	caller := experiments.Stranger()
	arg := value.NewInt(1)
	gen := experiments.Gen

	hb := core.NewBuilder(gen, "Hiding", core.WithPolicy(experiments.OpenPolicy()))
	hb.FixedScriptMethod("covert", `fn() { return 1; }`, core.Hidden())
	hidden := hb.MustBuild()
	b.Run("hidden-not-found", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := hidden.Invoke(caller, "covert", arg); err == nil {
				b.Fatal("hidden invoked")
			}
		}
	})

	denied := experiments.ACLObject(0, security.DenyAll())
	b.Run("acl-deny", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := denied.Invoke(caller, "work", arg); err == nil {
				b.Fatal("denied invoked")
			}
		}
	})

	pb := core.NewBuilder(gen, "Closed", core.WithPolicy(security.NewPolicy()))
	pb.FixedScriptMethod("work", `fn(x) { return x; }`)
	policyDenied := pb.MustBuild()
	b.Run("policy-deny", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := policyDenied.Invoke(caller, "work", arg); err == nil {
				b.Fatal("policy-denied invoked")
			}
		}
	})
}

// Ablation: the functionality split — relayed vs migrated method on the
// same ambassador (the codesplit decision measured).
func BenchmarkAblation_RelayVsMigrated(b *testing.B) {
	host, origin, cleanup, err := experiments.TwoSites()
	if err != nil {
		b.Fatal(err)
	}
	defer cleanup()
	if _, err := host.Import("bench-origin", "payroll"); err != nil {
		b.Fatal(err)
	}
	amb, err := host.ResolveObject("payroll@bench-origin")
	if err != nil {
		b.Fatal(err)
	}
	client := security.Principal{Object: host.Generator().New(), Domain: host.Domain()}
	who := value.NewString("alice")

	b.Run("relayed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := amb.Invoke(client, "salaryOf", who); err != nil {
				b.Fatal(err)
			}
		}
	})

	// Migrate data + method into the ambassador, then measure again.
	apo, err := origin.APO("payroll")
	if err != nil {
		b.Fatal(err)
	}
	records, err := apo.Get(apo.Principal(), "records")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := origin.UpdateAmbassadors("payroll", "addDataItem",
		value.NewString("records"), records); err != nil {
		b.Fatal(err)
	}
	if _, err := origin.UpdateAmbassadors("payroll", "setMethod",
		value.NewString("salaryOf"),
		value.NewMap(map[string]value.Value{
			"body": value.NewString(`fn(name) {
				let recs = self.records;
				if !has(recs, name) { return -1; }
				return recs[name]["salary"];
			}`),
		})); err != nil {
		b.Fatal(err)
	}
	b.Run("migrated", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := amb.Invoke(client, "salaryOf", who); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---- E11: itinerant agent journey ----

// benchAgentHop measures a single hop there-and-back between two sites that
// each hold residents other APOs — the unit the E11 table scales: ship the
// agent out, let onArrival bounce it home.
func benchAgentHop(b *testing.B, residents int) {
	host, origin, cleanup, err := experiments.TwoSites()
	if err != nil {
		b.Fatal(err)
	}
	defer cleanup()
	for _, s := range []*hadas.Site{host, origin} {
		apos := make(map[string]*core.Object, residents)
		for i := 0; i < residents; i++ {
			apos[fmt.Sprintf("resident-%04d", i)] = s.NewAPOBuilder("Resident").MustBuild()
		}
		if err := s.AddAPOs(apos); err != nil {
			b.Fatal(err)
		}
	}
	builder := host.NewAPOBuilder("Bouncer")
	builder.FixedScriptMethod("onArrival", `fn(hop) {
		if hop["hostSite"] == "bench-host" { return "home"; }
		return ctx.lookup("ioo").dispatchAgent(hop["agent"], "bench-host");
	}`)
	agent, err := builder.Build()
	if err != nil {
		b.Fatal(err)
	}
	if err := host.AddAPO("bouncer", agent); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := host.DispatchAgent("bouncer", "bench-origin")
		if err != nil {
			b.Fatal(err)
		}
		if v.String() != "home" {
			b.Fatalf("journey = %v", v)
		}
	}
}

func BenchmarkE11_AgentHop(b *testing.B) { benchAgentHop(b, 0) }

// The same journey past 2 048 resident APOs per site: a hop must not pay
// for the size of Home.
func BenchmarkE11_AgentHopHome2048(b *testing.B) { benchAgentHop(b, 2048) }

// What an object's birth allocates, the price of every resident and of
// every landing: building the RPC workloads' echo object (one data item,
// one method) and materializing a courier-sized image (sixteen data items
// and a script method). TestObjectFootprint pins the same two counts.
func BenchmarkE11_BuildObject(b *testing.B) {
	pol := experiments.OpenPolicy()
	echo := core.NewNativeBody("bench.echo", func(_ *core.Invocation, args []value.Value) (value.Value, error) {
		return args[0], nil
	})
	for i := 0; i < b.N; i++ {
		builder := core.NewBuilder(experiments.Gen, "Echo", core.WithPolicy(pol))
		builder.FixedData("idx", value.NewInt(int64(i)))
		builder.FixedMethod("work", echo)
		if _, err := builder.Build(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE11_Materialize(b *testing.B) {
	pol := experiments.OpenPolicy()
	builder := core.NewBuilder(experiments.Gen, "Courier", core.WithPolicy(pol))
	builder.ExtData("hops", value.NewInt(0))
	for d := 0; d < 15; d++ {
		builder.ExtData(fmt.Sprintf("cargo%02d", d), value.NewString(fmt.Sprintf("parcel %d of courier", d)))
	}
	builder.FixedScriptMethod("onArrival", `fn(hop) { return hop; }`)
	img, err := builder.MustBuild().Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.FromImage(img, nil, core.HostPolicy(pol)); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E14: single-RTT fan-out over pipelined TCP ----

// fanOutCalls builds one salaryOf call per peer for the E14 topology.
func fanOutCalls(origin *hadas.Site, peers []string) []hadas.FanOutCall {
	client := security.Principal{Object: origin.Generator().New(), Domain: origin.Domain()}
	arg := value.NewString("bob")
	calls := make([]hadas.FanOutCall, len(peers))
	for i, p := range peers {
		calls[i] = hadas.FanOutCall{Peer: p, Caller: client,
			Target: "payroll", Method: "salaryOf", Args: []value.Value{arg}}
	}
	return calls
}

// e14RTTs is the synthetic round-trip sweep: raw loopback (where RTT ≈ 0
// and the series exposes the per-call CPU epsilon) and a 1ms WAN-like hop
// (where the single-RTT claim lives).
var e14RTTs = []struct {
	label string
	rtt   time.Duration
}{
	{"rtt=0", 0},
	{"rtt=1ms", time.Millisecond},
}

// BenchmarkE14_PipelinedFanOut: one origin querying N peer sites over real
// TCP in a single InvokeFanOut round. The E14 claim is that the series
// grows like one RTT plus a small per-call epsilon — peers run
// concurrently and same-peer requests leave in one coalesced flush — not
// like N round trips (the BenchmarkE14_SequentialCalls series): at
// rtt=1ms the fan-out stays ≈1ms flat while sequential grows ≈N ms.
func BenchmarkE14_PipelinedFanOut(b *testing.B) {
	for _, tier := range e14RTTs {
		for _, n := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/sites=%d", tier.label, n), func(b *testing.B) {
				origin, peers, cleanup, err := experiments.FanOutSitesRTT(n, tier.rtt)
				if err != nil {
					b.Fatal(err)
				}
				defer cleanup()
				calls := fanOutCalls(origin, peers)
				for _, r := range origin.InvokeFanOut(calls) { // warm connections
					if r.Err != nil {
						b.Fatal(r.Err)
					}
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for _, r := range origin.InvokeFanOut(calls) {
						if r.Err != nil {
							b.Fatal(r.Err)
						}
					}
				}
			})
		}
	}
}

// BenchmarkE14_SequentialCalls is the pre-pipelining baseline: the same N
// remote queries issued one blocking InvokeRemote at a time, paying one
// round trip per peer.
func BenchmarkE14_SequentialCalls(b *testing.B) {
	for _, tier := range e14RTTs {
		for _, n := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/sites=%d", tier.label, n), func(b *testing.B) {
				origin, peers, cleanup, err := experiments.FanOutSitesRTT(n, tier.rtt)
				if err != nil {
					b.Fatal(err)
				}
				defer cleanup()
				calls := fanOutCalls(origin, peers)
				for _, c := range calls { // warm connections
					if _, err := origin.InvokeRemote(c.Peer, c.Caller, c.Target, c.Method, c.Args...); err != nil {
						b.Fatal(err)
					}
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for _, c := range calls {
						if _, err := origin.InvokeRemote(c.Peer, c.Caller, c.Target, c.Method, c.Args...); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
		}
	}
}
