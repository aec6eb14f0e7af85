// Package embera reproduces "Towards a Component-based Observation of
// MPSoC" (Prada-Rojas, Marangonzova-Martin, Georgiev, Méhaut, Santana —
// INRIA RR-6905 / ICPP 2009): the EMBera component model for multi-level
// observation of MPSoC applications, together with both evaluation
// platforms rebuilt as deterministic simulations, a native goroutine
// platform executing the same assemblies in real time, and the full
// experiment suite.
//
// # Platforms
//
// Four platforms are registered with internal/platform and are
// interchangeable by name everywhere (binaries, experiments, conformance):
//
//   - smp, sti7200 — the paper's two machines as deterministic
//     discrete-event simulations. Virtual time, cooperative scheduling,
//     bit-reproducible runs: use these to reproduce the paper's tables
//     and figures and for fingerprint-exact regression testing.
//   - native — the same component model bound to the host Go runtime
//     (internal/native): one goroutine per component, bounded
//     mailboxes that serve their blocked flows in FIFO order,
//     wall-clock timestamps, real concurrency. Results (workload
//     checksums, communication counters) match the simulators bit for
//     bit; timings are real and therefore not reproducible. Use it to
//     measure actual throughput and to exercise observation under true
//     parallelism.
//   - cluster — the same assembly sharded across OS processes
//     (internal/cluster): components are placed by FNV-1a name hash
//     modulo the shard count, a coordinator re-execs its own binary
//     once per shard, and cross-shard messages, monitor windows and
//     final reports travel the length-prefixed frame protocol of
//     internal/wire (zero-alloc little-endian encode for scalar
//     payloads, a binary codec registered per struct payload type,
//     64 MiB frame cap). Data frames cross one socket, from the
//     producing worker straight to the consuming one, over links the
//     coordinator hands the workers at spawn; the coordinator never sees
//     them. It ingests worker windows into its own monitor and
//     merges workload partials, so one run's results look exactly like
//     a single-process run. Deterministic() is false — workers run on
//     wall clocks over real sockets — so observation fingerprints are
//     not asserted, but checksums and communication counters still
//     must match every other platform.
//
// Platform.Deterministic() reports which guarantee holds, and harness
// code asserts reproducibility fingerprints only where it does.
//
// # Workload families and differential conformance
//
// Besides the hand-written mjpeg and pipeline workloads, three
// parameterized workload families register through
// platform.RegisterWorkloadFamily and drive every registry consumer
// unchanged (embera-mjpeg -workload rand:42); malformed specs are
// rejected with the same exit-2 registry listing as unknown names.
//
//   - rand:<seed> (internal/fuzzwl) — a random layered DAG of
//     producer/transform/fan-in/fan-out/sink components — message
//     sizes, emission periods, compute costs and mailbox capacities all
//     randomized — derived deterministically from the seed, with the
//     correct checksum and message counts computable from the
//     generating spec alone.
//   - burst:<spec> (internal/burstwl) — an open-loop request/response
//     assembly: clients send on a virtual-time Poisson/on-off/uniform
//     arrival schedule (load independent of system speed), fan each
//     request out to a random server subset, servers forward to a
//     folding collector. The spec is one seed or an explicit
//     clients=,servers=,fanout=,reqs=,rate=,bytes=,cap=,cost=,mode=
//     grammar; expected units, checksum and per-edge flows are closed
//     forms, and the differential battery additionally asserts each
//     cell's monitor-window latency tail (monotone p50 ≤ p95 ≤ p99,
//     bounded by the observed max and the makespan). Soak with
//     embera-bench -exp DIFF -family burst -seeds N; failures print the
//     one-line -exp DIFF -family burst -seed repro.
//   - replay:<file> (internal/replaywl) — a recorded run as a
//     deterministic benchmark. `embera-trace capture` (or GET
//     /v1/assemblies/{id}/capture on a live embera-serve) writes an
//     EMBR bundle — assembly manifest plus the internal/trace event
//     stream — and loading it rebuilds the assembly with inboxes
//     widened by their total recorded inbound bytes, so the recorded
//     schedule provably drains on any platform while every component
//     replays its exact send/receive/compute sequence. Complete traces
//     have closed-form expected checksums; incomplete ones are rejected
//     at parse time, and golden-file tests lock the byte formats.
//
// The differential conformance engine (internal/conformance) runs each
// seed across every registered platform and asserts checksum equality
// everywhere, bit-identical timing fingerprints on deterministic
// platforms, sane final reports (every component done and no longer
// running in the OS view, non-negative execution time, positive memory,
// middleware operations summing to application operations, the
// observation interface first in every listing), per-interface flow
// conservation (sends == receives +
// in-flight depth at teardown; on the cluster platform the inbox sum
// spans every shard's senders and each cross-shard edge's wire-frame
// count must equal its producer's send count), agreement between the
// streaming
// monitor's window aggregates and the final observer report, and — on
// simulated Linux — complete correlation between kernel copies and
// application sends. A conformance.Spec{Family, Platforms, Migrate} names
// one battery; conformance.Differential runs one seed of it deep and
// conformance.Sweep soaks a seed range. `go test ./internal/conformance
// -run Differential` sweeps 64 seeds; `embera-bench -exp DIFF -family
// rand -seeds N` soaks further, and any failure prints a one-line
// `embera-bench -exp DIFF -family rand -seed <n>` repro.
//
// # Feedback control
//
// internal/ctl closes the observe→act loop. A feedback controller
// consumes the monitor's closed windows and evaluates declarative
// threshold/hysteresis policies — JSON rules naming a component, a
// window metric (depth_high, send_rate, recv_rate, latency percentiles),
// a comparison against a threshold, and hold/cooldown window counts that
// keep noisy metrics from flapping the assembly. The controller only
// decides (Observe is pure and lock-cheap, safe inside the monitor's
// sink path); a per-assembly executor in internal/serve applies the
// firings through the served run's control surface, with a bounded
// firing queue that sheds under counted loss. Policies install over
// HTTP (GET/POST /v1/assemblies/{id}/policies) or at boot via
// embera-serve -policies; the loop's own health exports as the
// embera_ctl_* metrics (actions taken, suppressed, errored, firings
// dropped, policies installed).
//
// Actions include a safe migrate primitive (core.App.Migrate): rebind
// the edge under the connection lock — rejecting terminated components
// and already-closed mailboxes — close the displaced mailbox in the
// same critical section when this producer was its last, then drain its
// backlog deterministically into the new provider through the transport
// seam before the edge resumes. Any schedule of same-target
// migrate/reconnect points is semantics-preserving by construction, and
// the differential battery proves it: ctl.ScheduleFor derives a
// deterministic schedule from the assembly name, ctl.AttachMigrations
// injects it into running rand:<seed> cells, and checksums, flow
// conservation and monitor agreement must survive any schedule on every
// platform (`embera-bench -exp DIFF -family rand -migrate -seeds N`;
// failures print the one-line repro). examples/feedback runs the loop end
// to end: a depth high-water policy rebinds a hot component's work to
// an idle spare with message conservation asserted.
//
// # Tracking performance
//
// Observation-path cost is a CI-gated invariant. Every embera-bench run
// writes a machine-readable BENCH_embera.json (experiment → total_ns,
// total_allocs, and per-op normalizations where the experiment reports
// work units); `embera-bench -exp OV` adds the internal/perfstat
// harness entries — each platform×workload cell run with the streaming
// monitor off and on (the relative host cost lands in overhead_pct) and
// micro-benchmarks of the zero-alloc hot paths (monitor sample tick,
// native mailbox send, sim-kernel park/wake round, trace emit/codec).
// The committed reference lives under testdata/baselines/;
// cmd/embera-perfdiff diffs a fresh record against it and exits
// non-zero when a gated metric regresses beyond the tolerance
// (-tolerance 15% in CI's bench-regress job). Allocation metrics gate —
// they transfer across machines, and a committed 0 allocs/op is an
// absolute invariant — while time metrics are reported but gate only
// under -gate-time. Re-baseline intentionally with
// `embera-perfdiff -update` and commit the result.
//
// # Serving observation
//
// The paper's observation model is meant to stay enabled, so
// cmd/embera-serve runs it as a service: exp.RunServed keeps any
// platform×workload assembly alive indefinitely — relaunching the
// finite workload in generations under persistent monitor sinks, with
// repeated failures parking the assembly rather than spinning — and
// internal/serve puts HTTP in front of it. Closed observation windows
// stream over SSE (GET /v1/assemblies/{id}/windows, or the all-assembly
// firehose on /v1/assemblies) through a bounded fan-out broker: each
// subscriber owns a fixed-capacity queue and slow readers shed events
// as exactly counted per-subscriber drops, the same
// bounded-memory-with-counted-loss contract as the monitor ring. The
// paper's control functions are a live API (POST
// /v1/assemblies/{id}/control): start/stop, pause/resume sampling,
// set-period and set-window retune the running monitor without a
// restart (non-positive values are rejected 400 at the door), and
// reconnect/migrate/terminate rewire, drain-and-rewire or stop
// components inside the running generation. /metrics exports Prometheus text (stdlib-only)
// covering both the observed windows (rates, latency percentiles,
// mailbox high-water marks per component) and the observer itself
// (ring drops, sink errors, subscriber counts and drops,
// goroutine/heap gauges); /healthz reports per-assembly health.
//
// See README.md for the package layout, including the platform
// abstraction layer and workload registry of internal/platform (one
// harness, any platform × any workload — with an "adding a platform /
// adding a workload" how-to, now including non-simulated bindings) and
// the streaming observation pipeline of internal/monitor. The root
// package carries only documentation and the top-level benchmarks
// (bench_test.go); all code lives under internal/, the executables under
// cmd/ and the runnable examples under examples/.
package embera
