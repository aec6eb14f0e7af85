// Differential conformance: the record-and-compare battery that runs one
// generated workload seed across every registered platform and
// cross-checks everything the observation stack reports. Two families
// plug in today — internal/fuzzwl's "rand:<seed>" random DAGs and
// internal/burstwl's "burst:<seed>" open-loop RPC cells — and any
// workload whose instance implements platform.FlowModeler gets the same
// treatment. It is the strongest pressure the repository puts on the
// paper's central claim — that component-level observation stays faithful
// across heterogeneous platforms — because none of the workloads it runs
// were ever hand-written:
//
//   - result checksums and unit counts must be identical on every platform
//     (portability of application semantics);
//   - timing fingerprints must be bit-identical between two runs of the
//     same cell on Deterministic (virtual-time) platforms;
//   - every final report must be sane on its own: the component is done,
//     its OS view no longer reads running, its execution time is
//     non-negative and its memory positive, its middleware operations sum
//     to its application operations, and its interface listing starts with
//     the observation interface;
//   - flow conservation must hold per interface: messages sent into every
//     inbox equal messages received plus the in-flight depth the final
//     report shows at teardown — and both must match the workload's
//     closed-form flow model (platform.FlowModeler);
//   - the monitor's windowed send-latency histograms must report
//     monotonic, makespan-bounded p50/p95/p99 percentiles, and carry
//     samples on any deterministic run long enough to span a window;
//   - on process-sharded machines (the cluster platform) the same law is
//     accounted per shard: the sends into an inbox are summed per source
//     process so a cross-process mismatch names the interface and the
//     shards on both ends, and every cross-shard edge must show exactly
//     one wire frame per producer send op;
//   - the streaming monitor's window aggregates must agree with the final
//     pull-model observer report (cumulative counters never exceed the
//     final ones, merged deltas reproduce the cumulative totals, and no
//     sample is lost unaccounted);
//   - on the simulated-Linux platform the kernel trace must correlate
//     completely with the EMBera send trace: no kernel copy without an
//     application-level explanation, and no send without its kernel copy.
//
// A Spec names one battery: the family, the platforms, and whether the
// fuzzed migration scheduler rides along. Differential runs one seed of it
// deep and Sweep soaks a seed range; both share one per-run check. Every
// failure ends with the Spec's one-line repro command
// ("embera-bench -exp DIFF -family <f> [-migrate] -seed <n>"), so a
// nightly soak finding reduces to a single deterministic invocation.
package conformance

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"embera/internal/core"
	"embera/internal/correlate"
	"embera/internal/ctl"
	"embera/internal/exp"
	"embera/internal/kptrace"
	"embera/internal/monitor"
	"embera/internal/platform"
	"embera/internal/smpbind"
	"embera/internal/trace"

	// The battery's seeded families register on import.
	_ "embera/internal/burstwl"
	_ "embera/internal/fuzzwl"
)

// migrationPoints is how many same-target migrate/reconnect points the
// fuzzed migration scheduler injects into each migrated differential cell.
// Delays land in the low milliseconds, so several points hit while the
// generated workload is still flowing.
const migrationPoints = 6

// sweepChunk is how many seeds one RunMatrix call of a sweep runs: it
// bounds the machines in flight.
const sweepChunk = 16

// Spec selects one differential battery.
type Spec struct {
	// Family is the seeded workload family, "rand" (internal/fuzzwl) or
	// "burst" (internal/burstwl): seed n runs the workload "<Family>:<n>".
	Family string
	// Platforms restricts the battery to these registered platforms; nil
	// selects every registered platform. With one platform the
	// cross-platform comparison is vacuous but the per-run battery still
	// applies, which is what a platform-targeted repro wants.
	Platforms []string
	// Migrate attaches the fuzzed migration scheduler to every run: a
	// deterministic schedule of same-target migrate/reconnect points fires
	// while the cell is flowing, and every invariant must survive it. The
	// schedule is a pure function of the workload name, so a deterministic
	// platform's rerun injects the identical points and the fingerprint
	// comparison stays meaningful. On the cluster coordinator every
	// component is external, the edge list is empty and the cell runs as a
	// control.
	Migrate bool
}

// Workload returns the registry name of the spec's workload for one seed.
func (s Spec) Workload(seed int64) string { return fmt.Sprintf("%s:%d", s.Family, seed) }

// Repro returns the one-line command that reruns one seed of the spec
// through the deep battery; every failure ends with it.
func (s Spec) Repro(seed int64) string {
	migrate := ""
	if s.Migrate {
		migrate = " -migrate"
	}
	return fmt.Sprintf("embera-bench -exp DIFF -family %s%s -seed %d", s.Family, migrate, seed)
}

// sharder is the structural seam a machine exposes when it partitioned the
// assembly across OS processes (the cluster platform): the placement
// function, and the per-edge wire-frame counters for cross-shard
// connections. When a run's machine implements it, flow conservation is
// additionally accounted per shard — a send==receive mismatch names the
// offending interface and the shards on both ends — and every cross-shard
// edge's wire-frame count must equal the producer's send ops.
type sharder interface {
	ShardOf(name string) int
	WireFrames(from, iface string) (uint64, bool)
}

// diffMonitorConfig is the streaming-observation attachment every
// differential run carries: application-level sampling fine enough to land
// samples inside small virtual makespans, plus a coarser OS-level sampler
// so both facets of the aggregation pipeline are exercised.
func diffMonitorConfig() *monitor.Config {
	return &monitor.Config{
		Levels: []monitor.LevelPeriod{
			{Level: core.LevelApplication, PeriodUS: 200},
			{Level: core.LevelOS, PeriodUS: 1000},
		},
		WindowUS: 2000,
	}
}

// traceCapacity bounds the per-run event recorder. Generated topologies
// stay in the low thousands of messages; the engine verifies nothing was
// dropped before correlating, so an undersized buffer is an explicit
// failure rather than a silent orphan source.
const traceCapacity = 1 << 17

// probe is what the battery attached to one run: the migration schedule of
// a migrated spec and, on a deep run on simulated Linux, the kernel-copy
// tracer with the event recorder it correlates against.
type probe struct {
	sched *ctl.ScheduleResult
	rec   *trace.Recorder
	ktr   *kptrace.Tracer
}

// probes holds each run's probe under the run's own assembly: exp.RunMatrix
// shares one Customize hook across its concurrent cells.
type probes struct {
	mu sync.Mutex
	by map[*core.App]probe
}

// options returns the harness options of the spec's runs and the probes
// their Customize hook attaches. Deep runs also trace kernel copies, which
// only exist on the simulated-Linux platform, so both tracers attach only
// there and other platforms skip the buffer and the per-event locking.
func (s Spec) options(deep bool) (exp.Options, *probes) {
	ps := &probes{by: map[*core.App]probe{}}
	return exp.Options{
		Monitor: diffMonitorConfig(),
		Customize: func(a *core.App, _ *core.Observer) {
			var pr probe
			if b, ok := a.Binding().(*smpbind.Binding); ok && deep {
				pr.rec = trace.NewRecorder(traceCapacity)
				a.SetEventSink(pr.rec)
				pr.ktr = kptrace.Attach(b.Sys, 0)
			}
			if s.Migrate {
				pr.sched = ctl.AttachMigrations(a, ctl.ScheduleFor(a, migrationPoints))
			}
			ps.mu.Lock()
			ps.by[a] = pr
			ps.mu.Unlock()
		},
	}, ps
}

// check is the per-run battery both entry points share: the cell ran
// clean, its migration schedule applied without an unexpected failure,
// flows are conserved against the workload's model, the monitor agrees
// with the observer, the latency tail is sane, and where kernel copies
// were traced they correlate with the application sends. The cell's probe
// is released, so a sweep does not hold every recorder to its end.
func (ps *probes) check(c exp.MatrixResult) error {
	err := c.Err
	if err == nil {
		ps.mu.Lock()
		pr := ps.by[c.Result.App]
		delete(ps.by, c.Result.App)
		ps.mu.Unlock()
		err = checkProbed(c.Result, pr)
	}
	if err != nil {
		return fmt.Errorf("conformance: %s × %s: %w", c.Platform, c.Workload, err)
	}
	return nil
}

func checkProbed(run *exp.Result, pr probe) error {
	if pr.sched != nil {
		if err := pr.sched.Err(); err != nil {
			return fmt.Errorf("migration schedule: %w", err)
		}
	}
	if err := CheckRun(run); err != nil {
		return err
	}
	if err := checkTailLatency(run); err != nil {
		return err
	}
	if pr.ktr != nil {
		return checkKernelCorrelation(pr.ktr, pr.rec)
	}
	return nil
}

// agree requires c's workload result to equal ref's: one seed computes the
// same checksum and unit count on every platform and in every rerun.
func agree(ref, c exp.MatrixResult) error {
	got, want := c.Result.Instance, ref.Result.Instance
	if got.Checksum() != want.Checksum() || got.Units() != want.Units() {
		return fmt.Errorf("conformance: %s: %s result %016x/%d disagrees with %s %016x/%d",
			c.Workload, c.Platform, got.Checksum(), got.Units(),
			ref.Platform, want.Checksum(), want.Units())
	}
	return nil
}

// Differential runs the deep battery for one seed of the spec: every
// platform runs the seed (twice on Deterministic ones, whose timing
// fingerprints must then be bit-identical) under the per-run battery, and
// all runs must compute the same result. Any returned error ends with the
// spec's one-line repro command.
func Differential(s Spec, seed int64) error {
	if err := differential(s, seed); err != nil {
		return fmt.Errorf("%w\nrepro: %s", err, s.Repro(seed))
	}
	return nil
}

func differential(s Spec, seed int64) error {
	platformNames := s.Platforms
	if platformNames == nil {
		platformNames = platform.Names()
	}
	name := s.Workload(seed)
	opts, ps := s.options(true)
	var ref exp.MatrixResult
	for _, pn := range platformNames {
		p, err := platform.Get(pn)
		if err != nil {
			return err
		}
		runs := 1
		if p.Deterministic() {
			runs = 2 // rerun to assert bit-identical timing fingerprints
		}
		var fingerprint uint64
		for r := 0; r < runs; r++ {
			c := exp.MatrixResult{MatrixCell: exp.MatrixCell{Platform: pn, Workload: name}}
			c.Result, c.Err = exp.RunNamed(pn, name, opts)
			if err := ps.check(c); err != nil {
				return err
			}
			if ref.Result == nil {
				ref = c
			} else if err := agree(ref, c); err != nil {
				return err
			}
			if runs == 1 {
				// Fingerprints are only ever compared between reruns, so
				// wall-clock platforms skip the full-report serialization.
				continue
			}
			fp, err := Fingerprint(c.Result)
			if err != nil {
				return fmt.Errorf("conformance: %s × %s: %w", pn, name, err)
			}
			if r > 0 && fp != fingerprint {
				return fmt.Errorf("conformance: %s × %s: nondeterministic timing fingerprints: %016x vs %016x",
					pn, name, fp, fingerprint)
			}
			fingerprint = fp
		}
	}
	return nil
}

// Sweep is the soak mode behind `embera-bench -exp DIFF -seeds N`: it fans
// the seed range [start, start+n) × the spec's platforms out as concurrent
// exp.RunMatrix sweeps (each seed one generated workload, each cell an
// isolated machine), then applies the per-run battery per cell and the
// cross-platform comparison per seed. The first failing seed — lowest
// seed, platform-name order within a seed — is returned as an error ending
// with its one-line repro command. The context is checked between chunks,
// so an interrupted soak finishes the chunk in flight (no half-verified
// seeds) and returns ctx.Err(); callers tell a clean interrupt
// (context.Canceled after Ctrl-C) from a real differential failure. It
// returns the number of cells executed.
func Sweep(ctx context.Context, s Spec, start int64, n int) (int, error) {
	if n <= 0 {
		return 0, fmt.Errorf("conformance: sweep needs a positive seed count, got %d", n)
	}
	cells := 0
	for lo, end := start, start+int64(n); lo < end; lo += sweepChunk {
		if err := ctx.Err(); err != nil {
			return cells, err
		}
		hi := min(lo+sweepChunk, end)
		names := make([]string, 0, hi-lo)
		for seed := lo; seed < hi; seed++ {
			names = append(names, s.Workload(seed))
		}
		opts, ps := s.options(false)
		results, err := exp.RunMatrix(s.Platforms, names, opts)
		if err != nil {
			return cells, err
		}
		cells += len(results)
		bySeed := map[string][]exp.MatrixResult{}
		for _, c := range results {
			bySeed[c.Workload] = append(bySeed[c.Workload], c)
		}
		for seed := lo; seed < hi; seed++ {
			if err := ps.checkSeed(bySeed[s.Workload(seed)]); err != nil {
				return cells, fmt.Errorf("%w\nrepro: %s", err, s.Repro(seed))
			}
		}
	}
	return cells, nil
}

// checkSeed verifies one seed's row of a sweep: the per-run battery on
// every cell, then agreement across platforms.
func (ps *probes) checkSeed(row []exp.MatrixResult) error {
	if len(row) == 0 {
		return fmt.Errorf("conformance: sweep produced no cells for this seed")
	}
	for _, c := range row {
		if err := ps.check(c); err != nil {
			return err
		}
	}
	for _, c := range row[1:] {
		if err := agree(row[0], c); err != nil {
			return err
		}
	}
	return nil
}

// CheckRun verifies the per-run differential invariants on a completed
// run: every final report is sane on its own, flows are conserved against
// the workload's closed-form flow model, and the monitor agrees with the
// observer. It applies to any run whose Instance implements
// platform.FlowModeler (fuzzwl, burstwl and replaywl runs); RunMatrix
// sweeps reuse it cell by cell.
func CheckRun(run *exp.Result) error {
	fm, ok := run.Instance.(platform.FlowModeler)
	if !ok {
		return fmt.Errorf("conformance: run instance %T carries no flow model", run.Instance)
	}
	if err := checkReports(run.Reports); err != nil {
		return err
	}
	sh, _ := run.Machine.(sharder)
	if err := checkFlowConservation(fm.FlowModel(), run.Reports, sh); err != nil {
		return err
	}
	return checkMonitorAgreement(run)
}

// checkReports holds every final report, taken at quiescence, to the
// binding-independent postconditions of a finished component: it
// terminated and its OS view says so, it reports a non-negative execution
// time and positive memory, its middleware counters sum to its
// application counters (so no interface's traffic escapes the totals),
// and its structure listing carries the observation interface first.
func checkReports(reports map[string]core.ObsReport) error {
	names := make([]string, 0, len(reports))
	for name := range reports {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rep := reports[name]
		if rep.OS == nil || rep.Middleware == nil || rep.App == nil {
			return fmt.Errorf("report: %s misses a level section", name)
		}
		if rep.App.State != "done" {
			return fmt.Errorf("report: %s state %q at quiescence, want done", name, rep.App.State)
		}
		if rep.OS.Running {
			return fmt.Errorf("report: %s still running in the OS view at quiescence", name)
		}
		if rep.OS.ExecTimeUS < 0 {
			return fmt.Errorf("report: %s negative execution time %dµs", name, rep.OS.ExecTimeUS)
		}
		if rep.OS.MemBytes <= 0 {
			return fmt.Errorf("report: %s reports %d bytes of memory", name, rep.OS.MemBytes)
		}
		var mwSend, mwRecv uint64
		for _, s := range rep.Middleware.Send {
			mwSend += s.Ops
		}
		for _, r := range rep.Middleware.Recv {
			mwRecv += r.Ops
		}
		if mwSend != rep.App.SendOps || mwRecv != rep.App.RecvOps {
			return fmt.Errorf("report: %s middleware send/recv ops %d/%d != application %d/%d",
				name, mwSend, mwRecv, rep.App.SendOps, rep.App.RecvOps)
		}
		if ifs := rep.App.Interfaces; len(ifs) < 2 || ifs[0].Name != core.ObsIfaceName || ifs[0].Type != "provided" {
			return fmt.Errorf("report: %s listing does not start with the provided observation interface", name)
		}
	}
	return nil
}

// checkFlowConservation asserts the per-interface accounting identity on
// the final reports against a workload's closed-form flow model: every
// sender's per-interface middleware counter and total send ops must equal
// the model's edge counts, and for every inbox the messages sent into it
// must equal messages received from it plus the depth reported in-flight
// at teardown — with the received count again matching the model.
//
// On sharded machines (sh non-nil) the identity is additionally accounted
// per process: the sends into every inbox are summed per source shard so a
// mismatch names the interface and the shard each half lives on, and every
// cross-shard edge must show exactly one wire frame per producer send op —
// the cross-process refinement of the same conservation law.
func checkFlowConservation(edges []platform.FlowEdge, reports map[string]core.ObsReport, sh sharder) error {
	if len(edges) == 0 {
		return fmt.Errorf("flow: workload's flow model is empty")
	}
	comps := map[string]bool{}
	wantSendOps := map[string]uint64{}
	type inboxKey struct{ comp, iface string }
	inboxModel := map[inboxKey]uint64{}
	inboxEdges := map[inboxKey][]platform.FlowEdge{}
	for _, e := range edges {
		comps[e.From], comps[e.To] = true, true
		wantSendOps[e.From] += e.Ops
		k := inboxKey{e.To, e.In}
		inboxModel[k] += e.Ops
		inboxEdges[k] = append(inboxEdges[k], e)
	}
	names := make([]string, 0, len(comps))
	for name := range comps {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rep, ok := reports[name]
		if !ok {
			return fmt.Errorf("flow: no report for %s", name)
		}
		if rep.Middleware == nil || rep.App == nil {
			return fmt.Errorf("flow: %s report misses middleware/application sections", name)
		}
		if rep.App.SendOps != wantSendOps[name] {
			return fmt.Errorf("flow: %s sent %d ops, model says %d", name, rep.App.SendOps, wantSendOps[name])
		}
	}
	for _, e := range edges {
		ops := reports[e.From].Middleware.Send[e.Iface].Ops
		if ops != e.Ops {
			return fmt.Errorf("flow: %s.%s carried %d sends, model says %d", e.From, e.Iface, ops, e.Ops)
		}
		if sh == nil {
			continue
		}
		// Cross-shard edges carry one wire frame per send op, counted
		// by the producing worker; same-shard edges report !remote.
		if frames, remote := sh.WireFrames(e.From, e.Iface); remote && frames != ops {
			return fmt.Errorf("flow: %s.%s (shard %d -> %s on shard %d): %d wire frames != %d send ops",
				e.From, e.Iface, sh.ShardOf(e.From), e.To, sh.ShardOf(e.To), frames, ops)
		}
	}
	inboxes := make([]inboxKey, 0, len(inboxModel))
	for k := range inboxModel {
		inboxes = append(inboxes, k)
	}
	sort.Slice(inboxes, func(i, j int) bool {
		if inboxes[i].comp != inboxes[j].comp {
			return inboxes[i].comp < inboxes[j].comp
		}
		return inboxes[i].iface < inboxes[j].iface
	})
	for _, k := range inboxes {
		rep := reports[k.comp]
		// Conservation on the inbox: sends in == receives out + in-flight.
		// The per-shard breakdown survives to the error message on sharded
		// runs, so a cross-process mismatch names the producing shards.
		var sentInto uint64
		perShard := map[int]uint64{}
		for _, e := range inboxEdges[k] {
			ops := reports[e.From].Middleware.Send[e.Iface].Ops
			sentInto += ops
			if sh != nil {
				perShard[sh.ShardOf(e.From)] += ops
			}
		}
		depth := -1
		for _, ifc := range rep.App.Interfaces {
			if ifc.Name == k.iface && ifc.Type == "provided" {
				depth = ifc.Depth
			}
		}
		if depth < 0 {
			return fmt.Errorf("flow: %s listing misses the provided inbox %s", k.comp, k.iface)
		}
		recv := rep.Middleware.Recv[k.iface].Ops
		if sentInto != recv+uint64(depth) {
			if sh != nil {
				return fmt.Errorf("flow: %s inbox %s (shard %d): %d sent in != %d received + %d in flight; sends by source shard: %s",
					k.comp, k.iface, sh.ShardOf(k.comp), sentInto, recv, depth, formatShardOps(perShard))
			}
			return fmt.Errorf("flow: %s inbox %s: %d sent in != %d received + %d in flight",
				k.comp, k.iface, sentInto, recv, depth)
		}
		if recv != inboxModel[k] {
			return fmt.Errorf("flow: %s received %d on %s, model says %d", k.comp, recv, k.iface, inboxModel[k])
		}
	}
	return nil
}

// formatShardOps renders a per-shard op-count map in shard order, for the
// sharded flow-conservation failure message.
func formatShardOps(perShard map[int]uint64) string {
	shards := make([]int, 0, len(perShard))
	for s := range perShard {
		shards = append(shards, s)
	}
	sort.Ints(shards)
	var b strings.Builder
	for i, s := range shards {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "shard %d: %d", s, perShard[s])
	}
	return b.String()
}

// checkMonitorAgreement asserts that the streaming monitor's windowed view
// of the run is consistent with the final pull-model observer report: the
// monitor is a sampled prefix of the truth, so its cumulative counters can
// never exceed the final ones, its merged window deltas must reproduce its
// cumulative totals, and every accepted sample must be accounted for in a
// window.
func checkMonitorAgreement(run *exp.Result) error {
	mon := run.Monitor
	if mon == nil {
		return fmt.Errorf("monitor: differential run carried no monitor")
	}
	var windowed int
	for _, w := range mon.Windows() {
		windowed += w.Samples
	}
	if accepted := mon.Samples(); uint64(windowed) != accepted {
		return fmt.Errorf("monitor: %d samples accepted but %d aggregated into windows",
			accepted, windowed)
	}
	for _, t := range mon.Totals() {
		rep, ok := run.Reports[t.Component]
		if !ok {
			return fmt.Errorf("monitor: sampled unknown component %q", t.Component)
		}
		if t.SendOps > rep.App.SendOps || t.RecvOps > rep.App.RecvOps {
			return fmt.Errorf("monitor: %s sampled counters %d/%d exceed final report %d/%d",
				t.Component, t.SendOps, t.RecvOps, rep.App.SendOps, rep.App.RecvOps)
		}
		if t.DeltaSendOps != t.SendOps || t.DeltaRecvOps != t.RecvOps {
			return fmt.Errorf("monitor: %s window deltas %d/%d do not reproduce cumulative totals %d/%d",
				t.Component, t.DeltaSendOps, t.DeltaRecvOps, t.SendOps, t.RecvOps)
		}
	}
	return nil
}

// latencyHorizonUS is the minimum makespan above which a deterministic
// platform's monitor is required to have landed send-latency samples: one
// full aggregation window of the differential monitor config. Shorter
// runs can legitimately finish between sampler ticks.
const latencyHorizonUS = 2000

// checkTailLatency asserts the tail-latency invariants every run must
// satisfy, evaluated through the monitor windows: the merged send-latency
// histograms must report monotonic p50 <= p95 <= p99 percentiles bounded
// by the run's makespan, and on deterministic platforms any run long
// enough to span an aggregation window must have produced latency samples
// at all — an empty histogram there means the monitor stopped seeing the
// send path.
func checkTailLatency(run *exp.Result) error {
	mon := run.Monitor
	if mon == nil {
		return fmt.Errorf("latency: differential run carried no monitor")
	}
	var lat monitor.Hist
	for _, w := range mon.Windows() {
		lat.Merge(&w.LatencyHist)
	}
	if lat.Total == 0 {
		if run.Platform.Deterministic() && run.MakespanUS >= latencyHorizonUS {
			return fmt.Errorf("latency: no send-latency samples landed in any monitor window (makespan %dµs)", run.MakespanUS)
		}
		return nil // wall-clock samplers may legally miss short runs
	}
	p50, p95, p99 := lat.Quantile(0.50), lat.Quantile(0.95), lat.Quantile(0.99)
	if p50 > p95 || p95 > p99 {
		return fmt.Errorf("latency: percentiles not monotonic: p50=%dµs p95=%dµs p99=%dµs", p50, p95, p99)
	}
	if p99 > lat.Max {
		return fmt.Errorf("latency: p99 %dµs exceeds the observed high-water mark %dµs", p99, lat.Max)
	}
	if run.MakespanUS > 0 && p99 > run.MakespanUS {
		return fmt.Errorf("latency: p99 %dµs exceeds the run's makespan %dµs", p99, run.MakespanUS)
	}
	return nil
}

// checkKernelCorrelation joins the kernel-level copy trace with the EMBera
// send trace of the same execution and requires a complete two-way mapping:
// every kernel copy explained by an application send and vice versa.
func checkKernelCorrelation(ktr *kptrace.Tracer, rec *trace.Recorder) error {
	if _, dropped := rec.Stats(); dropped > 0 {
		return fmt.Errorf("correlate: event recorder overflowed (%d dropped); enlarge traceCapacity", dropped)
	}
	res := correlate.Kernel(ktr.Events(), rec.Events())
	if len(res.OrphanKernel) > 0 {
		return fmt.Errorf("correlate: %d kernel copies have no application-level explanation (coverage %.3f)",
			len(res.OrphanKernel), res.Coverage())
	}
	if len(res.OrphanSends) > 0 {
		return fmt.Errorf("correlate: %d application sends produced no kernel copy", len(res.OrphanSends))
	}
	return nil
}
