// Package repro is a from-scratch Go reproduction of "Fast Post-placement
// Rewiring Using Easily Detectable Functional Symmetries" (Chang, Cheng,
// Suaris, Marek-Sadowska; DAC 2000).
//
// The public, embeddable entry point is the rapids package: load or
// generate a mapped circuit, place it, and optimize it with
// supergate-based rewiring and/or gate sizing under a context with
// typed progress events — see rapids' package documentation and
// DESIGN.md §4 for the API surface and its stability guarantees.
// rapids/server lifts that facade into an HTTP/JSON batch-optimization
// service (bounded job queue, worker pool, content-hash result cache,
// SSE progress streams; DESIGN.md §5) with cmd/rapidsd as its daemon.
//
// The implementation lives under internal/: the generalized implication
// supergate theory (internal/supergate), symmetry-based rewiring
// (internal/rewire), the Coudert-style optimizers (internal/sizing,
// internal/opt), and the full experimental substrate the paper's flow needs — mapped
// Boolean networks with a mutation-event layer, a cell library,
// technology mapping, benchmark generators, placement, star-model RC
// interconnect, incremental static timing analysis, bit-parallel
// simulation, and ATPG-style verification oracles. Command-line front
// ends are under cmd/ and runnable facade-only walk-throughs under
// examples/; README.md is the guided tour.
//
// bench_test.go in this directory regenerates every table and figure of
// the paper's evaluation; see DESIGN.md and EXPERIMENTS.md.
package repro
