// Top-level benchmarks: one per table and figure of the paper's evaluation,
// plus the ablations of DESIGN.md §5 and micro-benchmarks of the framework
// primitives. The table/figure benches run the experiments at reduced frame
// counts (so `go test -bench=.` completes in minutes) and report the
// paper-relevant quantities as custom metrics; cmd/embera-bench regenerates
// them at full paper scale (578/3000 frames).
package embera_test

import (
	"fmt"
	"testing"

	"embera/internal/core"
	"embera/internal/exp"
	"embera/internal/mjpeg"
	"embera/internal/mjpegapp"
	"embera/internal/monitor"
	"embera/internal/perfstat"
	"embera/internal/platform"
	"embera/internal/sim"
)

// smpMJPEG is the paper's SMP deployment of the decoder.
func smpMJPEG(stream []byte) mjpegapp.Config {
	return mjpegapp.ConfigFor(stream, platform.MustGet("smp").Topology())
}

// Bench-scale inputs: 1/10 of the paper's, same shape.
const (
	benchSmall = 58
	benchLarge = 300
)

// BenchmarkTable1_SMPExecTimeAndMemory regenerates Table 1: per-component
// execution time (both inputs) and memory on the SMP platform.
func BenchmarkTable1_SMPExecTimeAndMemory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.Table1(benchSmall, benchLarge)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			by := map[string]exp.T1Row{}
			for _, r := range rows {
				by[r.Component] = r
			}
			b.ReportMetric(float64(by["Fetch"].TimeSmallUS), "fetch-us/small")
			b.ReportMetric(float64(by["IDCT_1"].TimeSmallUS), "idct-us/small")
			b.ReportMetric(float64(by["Reorder"].TimeSmallUS), "reorder-us/small")
			b.ReportMetric(float64(by["Fetch"].MemKB), "fetch-kB")
			b.ReportMetric(float64(by["IDCT_1"].MemKB), "idct-kB")
			b.ReportMetric(float64(by["Reorder"].MemKB), "reorder-kB")
		}
	}
}

// BenchmarkTable2_CommunicationCounts regenerates Table 2: send/receive
// counters per component.
func BenchmarkTable2_CommunicationCounts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.Table2(benchSmall, benchLarge)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			by := map[string]exp.T2Row{}
			for _, r := range rows {
				by[r.Component] = r
			}
			b.ReportMetric(float64(by["Fetch"].SendSmall), "fetch-sends")
			b.ReportMetric(float64(by["IDCT_1"].SendSmall), "idct-sends")
			b.ReportMetric(float64(by["Reorder"].RecvSmall), "reorder-recvs")
		}
	}
}

// BenchmarkFigure4_SMPSendLatency regenerates Figure 4: mean send time per
// message size on SMP; reports the endpoints and the linear-fit slope.
func BenchmarkFigure4_SMPSendLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := exp.Figure4(exp.DefaultF4Sizes, 20)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			first, last := points[0], points[len(points)-1]
			b.ReportMetric(first.MeanSendUS, "send-us/1kB")
			b.ReportMetric(last.MeanSendUS, "send-us/125kB")
			b.ReportMetric((last.MeanSendUS-first.MeanSendUS)/float64(last.SizeKB-first.SizeKB),
				"us-per-kB")
		}
	}
}

// BenchmarkFigure5_Introspection regenerates Figure 5's interface listing.
func BenchmarkFigure5_Introspection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		listing, err := exp.Figure5()
		if err != nil {
			b.Fatal(err)
		}
		if len(listing) == 0 {
			b.Fatal("empty listing")
		}
	}
}

// BenchmarkTable3_OS21ExecTimeAndMemory regenerates Table 3: task_time and
// memory on the STi7200, reporting the Fetch-Reorder/IDCT ratio the paper
// highlights ("runs ten times slower").
func BenchmarkTable3_OS21ExecTimeAndMemory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.Table3(benchSmall)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			by := map[string]exp.T3Row{}
			for _, r := range rows {
				by[r.Component] = r
			}
			b.ReportMetric(by["Fetch-Reorder"].TimeSec, "fr-sec")
			b.ReportMetric(by["IDCT_1"].TimeSec, "idct-sec")
			b.ReportMetric(by["Fetch-Reorder"].TimeSec/by["IDCT_1"].TimeSec, "fr/idct-ratio")
			b.ReportMetric(float64(by["Fetch-Reorder"].MemKB), "fr-kB")
			b.ReportMetric(float64(by["IDCT_1"].MemKB), "idct-kB")
		}
	}
}

// BenchmarkFigure8_OS21SendLatency regenerates Figure 8: per-CPU-kind send
// latency sweep on the STi7200, reporting the 200 kB endpoints and the
// ST231/ST40 advantage.
func BenchmarkFigure8_OS21SendLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := exp.Figure8(exp.DefaultF8Sizes, 10)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			last := points[len(points)-1]
			b.ReportMetric(last.ST40SendMS, "st40-ms/200kB")
			b.ReportMetric(last.ST231SendMS, "st231-ms/200kB")
			b.ReportMetric(last.ST40SendMS/last.ST231SendMS, "st40/st231-ratio")
		}
	}
}

// BenchmarkAblation_ObservationOverhead (A1) compares observed vs bare runs.
func BenchmarkAblation_ObservationOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exp.AblationObservationOverhead(20)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(float64(r.BareMakespanUS), "bare-us")
			b.ReportMetric(float64(r.ObservedMakespanUS), "observed-us")
			b.ReportMetric(float64(r.EventsCollected), "events")
		}
	}
}

// BenchmarkAblation_MailboxCapacity (A2) sweeps the IDCT inbox size.
func BenchmarkAblation_MailboxCapacity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := exp.AblationMailboxCapacity(20, []int64{8, 64, 2458})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(float64(points[0].MakespanUS), "makespan-us/8kB")
			b.ReportMetric(float64(points[len(points)-1].MakespanUS), "makespan-us/2458kB")
		}
	}
}

// BenchmarkAblation_NUMAPlacement (A3) compares clustered vs spread layouts.
func BenchmarkAblation_NUMAPlacement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exp.AblationNUMAPlacement(20)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(r.ClusteredSendUS, "clustered-send-us")
			b.ReportMetric(r.SpreadSendUS, "spread-send-us")
		}
	}
}

// BenchmarkAblation_IDCTFanout (A4) sweeps the IDCT component count.
func BenchmarkAblation_IDCTFanout(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := exp.AblationIDCTFanout(20, []int{1, 3, 6})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(float64(points[0].MakespanUS), "makespan-us/1idct")
			b.ReportMetric(float64(points[1].MakespanUS), "makespan-us/3idct")
			b.ReportMetric(float64(points[2].MakespanUS), "makespan-us/6idct")
		}
	}
}

// --- micro-benchmarks: host-side cost of the framework and substrates ---

// BenchmarkSendPrimitive_SMP measures the host cost of one instrumented
// EMBera send+receive round through the simulated SMP mailbox.
func BenchmarkSendPrimitive_SMP(b *testing.B) {
	m, a := platform.MustGet("smp").New("bench")
	n := b.N
	prod := a.MustNewComponent("prod", func(ctx *core.Ctx) {
		for i := 0; i < n; i++ {
			ctx.Send("out", nil, 1024)
		}
	})
	prod.MustAddRequired("out")
	cons := a.MustNewComponent("cons", func(ctx *core.Ctx) {
		for {
			if _, ok := ctx.Receive("in"); !ok {
				return
			}
		}
	})
	cons.MustAddProvided("in", 1<<20)
	a.MustConnect(prod, "out", cons, "in")
	if err := a.Start(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	if err := m.Run(int64(1<<62) / int64(sim.Microsecond)); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkJPEGDecode measures the real baseline-JPEG decode throughput.
func BenchmarkJPEGDecode(b *testing.B) {
	frame, err := mjpeg.Encode(mjpeg.SynthFrame(exp.RefW, exp.RefH, 1),
		mjpeg.EncodeOptions{Quality: exp.RefQuality})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(frame)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mjpeg.Decode(frame); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJPEGEncode measures the encoder used by the workload generator.
func BenchmarkJPEGEncode(b *testing.B) {
	img := mjpeg.SynthFrame(exp.RefW, exp.RefH, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mjpeg.Encode(img, mjpeg.EncodeOptions{Quality: exp.RefQuality}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelEvents measures the per-event cost of the kernel's hot
// loop itself — schedule, heap push/pop, dispatch — with no processes
// involved. The event free list keeps this at zero allocations per event
// once the heap and free list are warm.
func BenchmarkKernelEvents(b *testing.B) {
	k := sim.NewKernel()
	n := b.N
	fired := 0
	// Four self-rescheduling timer chains keep a few events in flight, as a
	// real simulation does, so heap churn is exercised too.
	const chains = 4
	var tick func()
	tick = func() {
		fired++
		if fired+chains <= n {
			k.At(sim.Microsecond, tick)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < chains; i++ {
		k.At(sim.Duration(i), tick)
	}
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSimKernel measures one blocking put+get round through the sim
// kernel's queue (two processes ping-ponging): perfstat's
// micro/sim-kernel-send body.
func BenchmarkSimKernel(b *testing.B) { perfstat.BenchSimKernelSend(b) }

// BenchmarkSimHerd measures one handoff through a one-message box that
// eight simulated senders contend for (perfstat.BenchSimHerd).
func BenchmarkSimHerd(b *testing.B) { perfstat.BenchSimHerd(b) }

// BenchmarkTraceCodec measures the binary trace codec per event: one op is
// one encoded event, each Write call encoding a 4096-event trace
// (perfstat's micro/trace-write-event body).
func BenchmarkTraceCodec(b *testing.B) { perfstat.BenchTraceWrite(b) }

// BenchmarkMJPEGPipelineVirtualThroughput runs the full SMP MJPEG pipeline
// and reports virtual frames/sec alongside host ns/op.
func BenchmarkMJPEGPipelineVirtualThroughput(b *testing.B) {
	stream, err := exp.RefStream(20)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		run, err := exp.Run(exp.SMP(), mjpegapp.NewWorkload(smpMJPEG(stream)), exp.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(20/(float64(run.MakespanUS)/1e6), "virtual-fps")
		}
	}
}

// BenchmarkObservationQuery measures the host cost of one full three-level
// observer sweep over the running five-component MJPEG application.
func BenchmarkObservationQuery(b *testing.B) {
	stream, err := exp.RefStream(4)
	if err != nil {
		b.Fatal(err)
	}
	m, a := platform.MustGet("smp").New("bench")
	if _, err := mjpegapp.Build(a, smpMJPEG(stream)); err != nil {
		b.Fatal(err)
	}
	obs, err := a.AttachObserver()
	if err != nil {
		b.Fatal(err)
	}
	if err := a.Start(); err != nil {
		b.Fatal(err)
	}
	n := b.N
	var qErr error
	a.SpawnDriver("bench-driver", func(f core.Flow) {
		b.ResetTimer()
		for i := 0; i < n; i++ {
			if _, err := obs.QueryAll(f, core.LevelAll); err != nil {
				qErr = err
				return
			}
		}
		b.StopTimer()
	})
	if err := m.Run(int64(1<<62) / int64(sim.Microsecond)); err != nil {
		b.Fatal(err)
	}
	if qErr != nil {
		b.Fatal(qErr)
	}
}

// BenchmarkMonitorOverhead quantifies the host-side cost of the streaming
// observation pipeline: the full SMP MJPEG simulation under continuous
// sampling at 0 (baseline), 1, 10 and 100 samples per simulated
// millisecond. Compare ns/op against baseline for the slowdown; the
// samples/drops metrics confirm that overload is shed at the ring with an
// explicit count, never silently.
func BenchmarkMonitorOverhead(b *testing.B) {
	stream, err := exp.RefStream(10)
	if err != nil {
		b.Fatal(err)
	}
	for _, perMS := range []int{0, 1, 10, 100} {
		name := "baseline"
		if perMS > 0 {
			name = fmt.Sprintf("%dperMS", perMS)
		}
		b.Run(name, func(b *testing.B) {
			var samples, drops uint64
			for i := 0; i < b.N; i++ {
				m, a := platform.MustGet("smp").New("bench")
				if _, err := mjpegapp.Build(a, smpMJPEG(stream)); err != nil {
					b.Fatal(err)
				}
				var mon *monitor.Monitor
				if perMS > 0 {
					mon, err = monitor.New(a, monitor.Config{
						Levels: []monitor.LevelPeriod{{
							Level:    core.LevelApplication,
							PeriodUS: int64(1000 / perMS),
						}},
					})
					if err != nil {
						b.Fatal(err)
					}
					if err := mon.Start(); err != nil {
						b.Fatal(err)
					}
				}
				if err := a.Start(); err != nil {
					b.Fatal(err)
				}
				if err := m.Run(int64(3600 * sim.Second / sim.Microsecond)); err != nil {
					b.Fatal(err)
				}
				if !a.Done() {
					b.Fatal("application did not finish")
				}
				if mon != nil {
					samples, drops = mon.Samples(), mon.Dropped()
				}
			}
			if perMS > 0 {
				b.ReportMetric(float64(samples), "samples")
				b.ReportMetric(float64(drops), "drops")
			}
		})
	}
}

// BenchmarkMonitorSamplePath measures one steady-state monitor sampling
// tick over the registered pipeline workload on smp: SampleAll into a
// reused buffer, wrap into ring samples, PushBatch, periodic batch drain.
// This is the per-tick price of leaving the streaming monitor enabled,
// pinned at 0 allocs/op by the committed perfstat baseline
// (micro/monitor-sample-tick).
func BenchmarkMonitorSamplePath(b *testing.B) { perfstat.BenchMonitorSampleTick(b) }

// BenchmarkAggregatorFold measures the monitor's fold of one 25-sample tick
// of the wide burst assembly, flushing a window every 10 ticks, pinned at 0
// allocs/op by the committed perfstat baseline (micro/aggregator-fold).
func BenchmarkAggregatorFold(b *testing.B) { perfstat.BenchAggregatorFold(b) }

// BenchmarkMonitorWindow measures one closed window written to the
// monitor's memory sink and one configured sink (perfstat's
// micro/monitor-window body).
func BenchmarkMonitorWindow(b *testing.B) { perfstat.BenchMonitorWindow(b) }

// BenchmarkNativePipelineThroughput runs the synthetic pipeline workload on
// the native (goroutine) platform end to end — real concurrency, wall-clock
// timing, the full observation stack attached — and reports real messages
// per second through the sink.
func BenchmarkNativePipelineThroughput(b *testing.B) {
	const messages = 2000
	p := platform.MustGet("native")
	w := platform.MustGetWorkload("pipeline")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run, err := exp.Run(p, w, exp.Options{Options: platform.Options{Scale: messages}})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			secs := float64(run.MakespanUS) / 1e6
			if secs > 0 {
				b.ReportMetric(float64(run.Instance.Units())/secs, "msgs/s")
			}
		}
	}
}

// BenchmarkNativeSendLatency measures the host cost of one instrumented
// EMBera send+receive round through the native mailbox — the wall-clock
// counterpart of BenchmarkSendPrimitive_SMP (perfstat's
// micro/native-mailbox-send body).
func BenchmarkNativeSendLatency(b *testing.B) { perfstat.BenchNativeMailboxSend(b) }

// BenchmarkNativeFanIn measures the same round with eight producers blocked
// on one one-message inbox (perfstat's micro/native-mailbox-fanin body).
func BenchmarkNativeFanIn(b *testing.B) { perfstat.BenchNativeMailboxFanIn(b) }

// BenchmarkEntropyDecode measures the Fetch stage's core work: parsing a
// reference picture and Huffman decoding its scan into coefficient blocks
// (perfstat's micro/mjpeg-fetch body).
func BenchmarkEntropyDecode(b *testing.B) { perfstat.BenchMJPEGFetch(b) }

// BenchmarkIDCTStage measures the IDCT stage on one block: dequantize,
// inverse DCT and level shift (perfstat's micro/mjpeg-idct body).
func BenchmarkIDCTStage(b *testing.B) { perfstat.BenchMJPEGIDCT(b) }

// BenchmarkWireEncodeBlockGroup measures encoding one block-group data
// frame, the Fetch → IDCT message of the cluster platform (perfstat's
// micro/wire-encode-blockgroup body).
func BenchmarkWireEncodeBlockGroup(b *testing.B) { perfstat.BenchWireEncodeBlockGroup(b) }

// BenchmarkWireDecodeBlockGroup measures decoding that frame (perfstat's
// micro/wire-decode-blockgroup body).
func BenchmarkWireDecodeBlockGroup(b *testing.B) { perfstat.BenchWireDecodeBlockGroup(b) }

// BenchmarkClusterLinkHop measures that frame crossing a link between two
// cluster workers: write, buffered read and decode over a real unix socket
// pair (perfstat's micro/cluster-link-hop body).
func BenchmarkClusterLinkHop(b *testing.B) { perfstat.BenchClusterLinkHop(b) }

// BenchmarkBrokerPublish measures one closed window published through the
// served broker to one draining subscriber (perfstat's micro/broker-publish
// body).
func BenchmarkBrokerPublish(b *testing.B) { perfstat.BenchBrokerPublish(b) }

// BenchmarkCtlObserve measures one closed window folded into a ctl
// controller under a hold-3/cooldown-5 threshold policy (perfstat's
// micro/ctl-observe body).
func BenchmarkCtlObserve(b *testing.B) { perfstat.BenchCtlObserve(b) }
