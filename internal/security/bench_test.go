package security

import (
	"sync/atomic"
	"testing"

	"repro/internal/naming"
)

func BenchmarkACLDecideFirstEntry(b *testing.B) {
	g := naming.NewGenerator("bench")
	p := Principal{Object: g.New(), Domain: "d"}
	acl := NewACL(AllowObject(p.Object))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := acl.Decide(p, ActionInvoke); !ok {
			b.Fatal("no decision")
		}
	}
}

func BenchmarkACLDecideScan64(b *testing.B) {
	g := naming.NewGenerator("bench")
	p := Principal{Object: g.New(), Domain: "d"}
	entries := make([]Entry, 0, 65)
	for i := 0; i < 64; i++ {
		entries = append(entries, Entry{Effect: Deny, Object: g.New()})
	}
	entries = append(entries, AllowObject(p.Object))
	acl := NewACL(entries...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := acl.Decide(p, ActionInvoke); !ok {
			b.Fatal("no decision")
		}
	}
}

func BenchmarkCheckPolicyDefault(b *testing.B) {
	g := naming.NewGenerator("bench")
	p := Principal{Object: g.New(), Domain: "campus"}
	pol := NewPolicy()
	pol.GradeDomain("campus", Trusted)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Check(ACL{}, pol, p, ActionInvoke, "m"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAuditorRecord prices one audited decision: alone, from parallel
// callers of distinct objects (each worker's own target, as in
// local-reflect), and from parallel callers of one object.
func BenchmarkAuditorRecord(b *testing.B) {
	g := naming.NewGenerator("bench")
	p := Principal{Object: g.New(), Domain: "d"}
	b.Run("serial", func(b *testing.B) {
		a, target := NewAuditor(256), g.New()
		for i := 0; i < b.N; i++ {
			a.Record(target, p, ActionInvoke, "m", true)
		}
	})
	b.Run("parallel-distinct", func(b *testing.B) {
		a := NewAuditor(256)
		var worker atomic.Uint32
		b.RunParallel(func(pb *testing.PB) {
			target := g.New()
			target[15] = byte(worker.Add(1)) // a shard of its own
			for pb.Next() {
				a.Record(target, p, ActionInvoke, "m", true)
			}
		})
	})
	b.Run("parallel-shared", func(b *testing.B) {
		a, target := NewAuditor(256), g.New()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				a.Record(target, p, ActionInvoke, "m", true)
			}
		})
	})
}

func BenchmarkDomainGlobMatch(b *testing.B) {
	g := naming.NewGenerator("bench")
	p := Principal{Object: g.New(), Domain: "technion.ee.labs"}
	e := Entry{Effect: Allow, Domain: "technion.*"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !e.Matches(p, ActionInvoke) {
			b.Fatal("no match")
		}
	}
}
