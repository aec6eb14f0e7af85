// embera-bench regenerates every table and figure of the paper's evaluation
// (§4–§5), plus the ablations of DESIGN.md §5, the cross-platform
// comparisons (P1 serial, MX concurrent matrix) and the DIFF differential
// battery over generated rand:<seed> and burst:<seed> workloads. At the
// default paper scale (578/3000 frames) the full run takes a few minutes of
// host time, most of it real JPEG decoding inside the Fetch components;
// -small/-large shrink the inputs for a quick pass.
//
// Every run also emits a machine-readable BENCH_embera.json (experiment →
// ns/op, allocs/op, throughput) so the performance trajectory is tracked
// run over run; -bench-json "" disables it.
//
// Usage:
//
//	embera-bench -exp all
//	embera-bench -exp T1 -small 578 -large 3000
//	embera-bench -exp F4,F8
//	embera-bench -exp MX -platform native          # one matrix row
//	embera-bench -exp DIFF -family rand -seeds 256 # differential seed soak
//	embera-bench -exp DIFF -family rand -seed 41   # one-seed deep repro
//	embera-bench -exp DIFF -family burst -migrate  # burst soak under the migration scheduler
//	embera-bench -exp OV                           # observation-overhead harness + zero-alloc micros
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"embera/internal/cliutil"
	"embera/internal/cluster"
	"embera/internal/conformance"
	"embera/internal/exp"
	"embera/internal/perfstat"
	"embera/internal/platform"

	_ "embera/internal/replaywl" // replay:<file> workload family registration
)

// experiments lists every valid -exp identifier, in run order. OV is the
// perfstat observation-overhead harness plus the zero-alloc hot-path
// micro-benchmarks; its per-cell entries are what CI's bench-regress job
// diffs against testdata/baselines/.
var experiments = []string{"T1", "T2", "T3", "F4", "F5", "F8", "A1", "A2", "A3", "A4", "E6", "P1", "MX", "DIFF", "OV"}

func main() {
	// When re-executed by the cluster coordinator this process is a worker
	// shard: run it and exit before any flag parsing.
	cluster.MaybeWorkerMain()
	which := flag.String("exp", "all",
		"comma-separated experiments: "+strings.Join(experiments, ",")+" or 'all'")
	small := flag.Int("small", exp.SmallFrames, "frame count of the small input (paper: 578)")
	large := flag.Int("large", exp.LargeFrames, "frame count of the large input (paper: 3000)")
	msgs := flag.Int("msgs", 30, "messages per point in the send-time sweeps")
	platformName := flag.String("platform", "", "restrict the MX matrix / DIFF battery to one platform (default: all registered)")
	workloadName := flag.String("workload", "", "restrict the MX matrix to one workload (default: all registered)")
	mxScale := flag.Int("mx-scale", 60, "workload scale of each MX matrix cell")
	family := flag.String("family", "rand", "seeded workload family of the DIFF battery: rand or burst")
	migrate := flag.Bool("migrate", false, "run every DIFF cell under the fuzzed migration scheduler")
	seeds := flag.Int("seeds", 64, "seed count of the DIFF sweep")
	seedStart := flag.Int64("seed-start", 0, "first seed of the DIFF sweep")
	oneSeed := flag.Int64("seed", -1, "run the deep DIFF battery for this single seed (repro mode)")
	ovScale := flag.Int("ov-scale", 40, "workload scale of each OV overhead-harness cell")
	benchJSON := flag.String("bench-json", "BENCH_embera.json", "write machine-readable per-experiment timings here (empty = disabled)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole run here (pprof format)")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatalf("embera-bench: -cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("embera-bench: -cpuprofile: %v", err)
		}
		// The deferred stop also runs on the normal exit path below;
		// log.Fatal paths lose the profile, as they lose the JSON.
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				log.Printf("embera-bench: -cpuprofile: %v", err)
			}
		}()
	}

	valid := map[string]bool{}
	for _, e := range experiments {
		valid[e] = true
	}
	want := map[string]bool{}
	if *which == "all" {
		for _, e := range experiments {
			want[e] = true
		}
	} else {
		for _, e := range strings.Split(*which, ",") {
			id := strings.ToUpper(strings.TrimSpace(e))
			if !valid[id] {
				// Unknown experiments are a usage error, not a silent no-op:
				// exit non-zero after listing the valid identifiers.
				fmt.Fprintf(os.Stderr, "embera-bench: unknown experiment %q (valid: %s, all)\n",
					id, strings.Join(experiments, ", "))
				os.Exit(2)
			}
			want[id] = true
		}
	}

	// The matrix filters resolve through the registries: an unknown
	// -platform/-workload exits 2 with the registered names listed.
	var mxPlatforms, mxWorkloads []string
	if *platformName != "" {
		cliutil.ResolvePlatform("embera-bench", *platformName)
		mxPlatforms = []string{*platformName}
	}
	if *workloadName != "" {
		cliutil.ResolveWorkload("embera-bench", *workloadName)
		mxWorkloads = []string{*workloadName}
	}
	// So does the DIFF battery's first seed: an unknown -family exits 2.
	spec := conformance.Spec{Family: *family, Platforms: mxPlatforms, Migrate: *migrate}
	if want["DIFF"] {
		cliutil.ResolveWorkload("embera-bench", spec.Workload(max(*seedStart, *oneSeed)))
	}

	// Every experiment is timed and allocation-profiled into benchEntries;
	// runners report a work-unit count through setUnits so throughput can
	// be derived where "units" means something (matrix cells, seeds).
	benchEntries := perfstat.Record{}
	units := map[string]float64{}
	setUnits := func(id string, n float64) { units[id] = n }
	runIf := func(id string, f func() (string, error)) {
		if !want[id] {
			return
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		out, err := f()
		elapsed := time.Since(t0)
		runtime.ReadMemStats(&m1)
		if err != nil {
			log.Fatalf("%s: %v", id, err)
		}
		benchEntries[id] = perfstat.NewEntry(elapsed.Nanoseconds(),
			m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc, units[id])
		fmt.Printf("===== %s =====\n%s\n", id, out)
	}

	runIf("T1", func() (string, error) {
		rows, err := exp.Table1(*small, *large)
		if err != nil {
			return "", err
		}
		return exp.FormatTable1(rows, *small, *large), nil
	})
	runIf("T2", func() (string, error) {
		rows, err := exp.Table2(*small, *large)
		if err != nil {
			return "", err
		}
		return exp.FormatTable2(rows, *small, *large), nil
	})
	runIf("F4", func() (string, error) {
		points, err := exp.Figure4(exp.DefaultF4Sizes, *msgs)
		if err != nil {
			return "", err
		}
		return exp.FormatFigure4(points), nil
	})
	runIf("F5", func() (string, error) { return exp.Figure5() })
	runIf("T3", func() (string, error) {
		rows, err := exp.Table3(*small)
		if err != nil {
			return "", err
		}
		return exp.FormatTable3(rows, *small), nil
	})
	runIf("F8", func() (string, error) {
		points, err := exp.Figure8(exp.DefaultF8Sizes, *msgs)
		if err != nil {
			return "", err
		}
		return exp.FormatFigure8(points), nil
	})
	runIf("A1", func() (string, error) {
		r, err := exp.AblationObservationOverhead(min(*small, 60))
		if err != nil {
			return "", err
		}
		return exp.FormatA1(r), nil
	})
	runIf("A2", func() (string, error) {
		points, err := exp.AblationMailboxCapacity(min(*small, 60), []int64{8, 32, 128, 512, 2458})
		if err != nil {
			return "", err
		}
		return exp.FormatA2(points), nil
	})
	runIf("A3", func() (string, error) {
		r, err := exp.AblationNUMAPlacement(min(*small, 60))
		if err != nil {
			return "", err
		}
		return exp.FormatA3(r), nil
	})
	runIf("A4", func() (string, error) {
		points, err := exp.AblationIDCTFanout(min(*small, 60), []int{1, 2, 3, 4, 6, 8})
		if err != nil {
			return "", err
		}
		return exp.FormatA4(points), nil
	})
	runIf("P1", func() (string, error) {
		rows, err := exp.PipelineCompare(2000)
		if err != nil {
			return "", err
		}
		return exp.FormatP1(rows), nil
	})
	runIf("E6", func() (string, error) {
		samples, err := exp.QueueOccupancy(min(*small, 30), 64*1024, 20_000)
		if err != nil {
			return "", err
		}
		return exp.FormatOccupancy(samples, []string{
			"IDCT_1._fetchIdct1", "IDCT_2._fetchIdct2", "IDCT_3._fetchIdct3", "Reorder.idctReorder",
		}), nil
	})
	runIf("MX", func() (string, error) {
		cells, err := exp.RunMatrix(mxPlatforms, mxWorkloads, exp.Options{
			Options: platform.Options{Scale: *mxScale},
		})
		if err != nil {
			return "", err
		}
		sort.SliceStable(cells, func(i, j int) bool {
			if cells[i].Workload != cells[j].Workload {
				return cells[i].Workload < cells[j].Workload
			}
			return cells[i].Platform < cells[j].Platform
		})
		for _, c := range cells {
			if c.Err != nil {
				return "", fmt.Errorf("%s × %s: %w", c.Platform, c.Workload, c.Err)
			}
		}
		setUnits("MX", float64(len(cells)))
		return exp.FormatMatrix(cells), nil
	})
	runIf("DIFF", func() (string, error) {
		battery, diffPlatforms := "differential battery", mxPlatforms
		if *migrate {
			battery = "migrated " + battery
		}
		if diffPlatforms == nil {
			diffPlatforms = platform.Names()
		}
		if *oneSeed >= 0 {
			// Repro mode: the deep single-seed battery (fingerprint reruns
			// on deterministic platforms, kernel-copy correlation on smp),
			// honoring the -platform restriction like the sweep does.
			if err := conformance.Differential(spec, *oneSeed); err != nil {
				return "", err
			}
			setUnits("DIFF", 1)
			return fmt.Sprintf("%s passed the %s on %s\n",
				spec.Workload(*oneSeed), battery, strings.Join(diffPlatforms, ", ")), nil
		}
		// The soak honors SIGINT/SIGTERM between chunks: a Ctrl-C drains
		// the chunk in flight and exits clean (zero) with the cell count so
		// far — only a real differential failure is fatal.
		ctx, stopSignals := cliutil.ShutdownContext()
		defer stopSignals()
		cells, err := conformance.Sweep(ctx, spec, *seedStart, *seeds)
		interrupted := errors.Is(err, context.Canceled)
		if err != nil && !interrupted {
			// The error already ends with the failing seed's one-line
			// repro command; log.Fatalf in runIf surfaces it verbatim.
			return "", err
		}
		setUnits("DIFF", float64(cells))
		if interrupted {
			return fmt.Sprintf(
				"DIFF: interrupted after %d clean cells (%s seeds from %d, %d platform(s)) — shutdown requested, not a failure\n",
				cells, spec.Family, *seedStart, len(diffPlatforms)), nil
		}
		return fmt.Sprintf("DIFF: %s seeds [%d,%d) × %d platform(s) = %d cells passed the %s\n",
			spec.Family, *seedStart, *seedStart+int64(*seeds), len(diffPlatforms), cells, battery), nil
	})

	runIf("OV", func() (string, error) {
		// The steady-state observation-overhead harness: every (restricted)
		// platform×workload cell run monitor-off then monitor-on, plus the
		// zero-alloc hot-path micro-benchmarks. The per-cell entries merge
		// into the same record the other experiments write, so one
		// BENCH_embera.json carries the whole trajectory.
		rec, err := perfstat.ObservationOverhead(perfstat.HarnessOptions{
			Platforms: mxPlatforms,
			Workloads: mxWorkloads,
			Scale:     *ovScale,
		})
		if err != nil {
			return "", err
		}
		rec.Merge(perfstat.MicroBenchmarks())
		benchEntries.Merge(rec)
		setUnits("OV", float64(len(rec)))

		var b strings.Builder
		ids := make([]string, 0, len(rec))
		for id := range rec {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		fmt.Fprintf(&b, "%-36s %12s %14s %10s %9s\n",
			"cell", "ns/op", "allocs/op", "units", "overhead")
		for _, id := range ids {
			e := rec[id]
			over := "-"
			if e.OverheadPct != 0 {
				over = fmt.Sprintf("%+.1f%%", e.OverheadPct)
			}
			fmt.Fprintf(&b, "%-36s %12.0f %14.3f %10.0f %9s\n",
				id, e.NsPerOp, e.AllocsPerOp, e.Units, over)
		}
		return b.String(), nil
	})
	// The aggregate OV entry sums a heterogeneous harness whose micro
	// b.N counts scale with machine speed — per-cell entries carry the
	// comparable data, so the aggregate never enters the record.
	delete(benchEntries, "OV")

	if *benchJSON != "" && len(benchEntries) > 0 {
		if err := benchEntries.WriteFile(*benchJSON); err != nil {
			log.Fatalf("bench-json: %v", err)
		}
		fmt.Printf("wrote %s (%d experiments)\n", *benchJSON, len(benchEntries))
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
