// embera-monitor runs any registered workload on any registered platform
// under continuous streaming observation (internal/monitor): every
// component is sampled on a fixed virtual-time period, samples flow through
// the sharded ring buffer into windowed aggregation, and the whole-run
// rate/percentile table is printed at the end — per-component
// send/receive-operation rates, mailbox-depth high-water marks and
// p50/p95/p99 percentiles.
//
// Usage:
//
//	embera-monitor -scale 100                       # SMP mjpeg, 1 ms sampling
//	embera-monitor -platform sti7200 -scale 58
//	embera-monitor -workload pipeline -scale 2000   # monitor load generator
//	embera-monitor -period 100 -window 5000         # 10 samples/ms
//	embera-monitor -jsonl windows.jsonl             # stream windows to a file
//	embera-monitor -ring 64                         # starve the ring: see drops
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"embera/internal/cliutil"
	"embera/internal/cluster"
	"embera/internal/core"
	"embera/internal/exp"

	_ "embera/internal/burstwl" // burst:<spec> workload family registration
	_ "embera/internal/fuzzwl"  // rand:<seed> workload family registration
	"embera/internal/monitor"
	_ "embera/internal/replaywl" // replay:<file> workload family registration
)

func main() {
	// When re-executed by the cluster coordinator this process is a worker
	// shard: run it and exit before any flag parsing.
	cluster.MaybeWorkerMain()
	platformName := flag.String("platform", "smp", "platform (embera-mjpeg -list shows all)")
	workloadName := flag.String("workload", "mjpeg", "workload (embera-mjpeg -list shows all)")
	scale := flag.Int("scale", 0, "workload scale: frames for mjpeg, messages for pipeline (0 = default)")
	frames := flag.Int("frames", 0, "alias for -scale (frames of the mjpeg workload)")
	in := flag.String("in", "", "raw input file for stream-driven workloads (overrides -scale)")
	period := flag.Int64("period", 1000, "application-level sampling period (virtual µs)")
	osPeriod := flag.Int64("os-period", 5000, "OS-level sampling period (virtual µs, 0 = off)")
	window := flag.Int64("window", 10_000, "aggregation window (virtual µs)")
	ringCap := flag.Int("ring", 4096, "ring buffer capacity (samples)")
	shards := flag.Int("shards", 4, "ring buffer shard count")
	jsonl := flag.String("jsonl", "", "stream per-window JSONL records to this file")
	flag.Parse()

	// Unknown platform/workload names are a usage error (exit 2) before any
	// machinery is built; the printed errors list the registered names.
	p, w := cliutil.Resolve("embera-monitor", *platformName, *workloadName)

	// Wire the streaming observation pipeline into the run options.
	levels := []monitor.LevelPeriod{{Level: core.LevelApplication, PeriodUS: *period}}
	if *osPeriod > 0 {
		levels = append(levels, monitor.LevelPeriod{Level: core.LevelOS, PeriodUS: *osPeriod})
	}
	mcfg := monitor.Config{
		Levels:       levels,
		RingCapacity: *ringCap,
		RingShards:   *shards,
		WindowUS:     *window,
	}
	if *jsonl != "" {
		f, err := os.Create(*jsonl)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		mcfg.Sinks = append(mcfg.Sinks, monitor.NewJSONLSink(f))
	}

	opts := exp.Options{
		Options: cliutil.WorkloadOptions("embera-monitor", *scale, *frames, *in),
		Monitor: &mcfg,
	}

	run, err := exp.Run(p, w, opts)
	if err != nil {
		log.Fatalf("embera-monitor: %v", err)
	}
	mon := run.Monitor

	fmt.Printf("platform: %s\n", run.App.Binding().PlatformName())
	fmt.Printf("workload: %s — %s\n", *workloadName, run.Instance.Summary())
	fmt.Printf("sampling: app-level every %dµs", *period)
	if *osPeriod > 0 {
		fmt.Printf(", OS-level every %dµs", *osPeriod)
	}
	fmt.Printf("; window %dµs\n", *window)
	fmt.Printf("samples: %d accepted, %d dropped (ring capacity %d, %d shards); %d windows\n",
		mon.Samples(), mon.Dropped(), mon.Ring().Capacity(), mon.Ring().Shards(),
		len(mon.Windows()))
	if run.Kernel != nil {
		st := run.Kernel.Stats()
		fmt.Printf("kernel: %d events, %d switches, %d re-parks\n",
			st.Dispatched, st.Switches, st.Reparks)
	}
	fmt.Println()

	fmt.Print(monitor.FormatTotals(mon.Totals(), mon.Dropped(), mon.SinkErrors()))
	if *jsonl != "" {
		fmt.Printf("\nper-window JSONL written to %s\n", *jsonl)
	}
}
