// Package repro is a Go reproduction of "A Reflective Model for Mobile
// Software Objects" (Holder & Ben-Shaul, ICDCS 1997): the MROM mutable
// reflective object model, the HADAS interoperability framework built on
// it, and every substrate they depend on — a dynamic value system with
// generic coercion, decentralized naming, ACL/policy security, a mobile
// scripting language (MScript), a self-describing wire codec, transports,
// and self-contained persistence.
//
// Layout:
//
//	internal/core        MROM: objects, item containers, meta-methods,
//	                     level-0 invocation, meta-invoke chain
//	internal/value       weakly-typed values and coercion
//	internal/naming      decentralized identity and registries
//	internal/security    principals, ACLs, trust domains, policies
//	internal/mscript     the mobile-code language (lexer/parser/interpreter)
//	internal/wire        tag-length-value codec, object images, frames
//	internal/transport   framed TCP and in-process transports
//	internal/persist     stores and self-contained persistence
//	internal/hadas       HADAS: sites, IOOs, APOs, Ambassadors, programs
//	internal/experiments scenario fixtures shared by the benchmarks
//	cmd/hadasd           site daemon
//	cmd/mromsh           interactive shell
//	examples/...         runnable walkthroughs
//
// The benchmarks in bench_test.go regenerate every figure-shaped result;
// see DESIGN.md and EXPERIMENTS.md.
package repro
