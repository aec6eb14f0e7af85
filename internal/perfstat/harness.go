package perfstat

import (
	"fmt"
	"testing"

	"embera/internal/core"
	"embera/internal/ctl"
	"embera/internal/exp"
	"embera/internal/mjpeg"
	"embera/internal/mjpegapp"
	"embera/internal/monitor"
	"embera/internal/platform"
	"embera/internal/serve"
	"embera/internal/sim"
	"embera/internal/trace"
	"embera/internal/wire"

	_ "embera/internal/burstwl" // burst:<spec> family registration
)

// HarnessOptions parameterizes the steady-state observation-overhead
// harness.
type HarnessOptions struct {
	// Platforms / Workloads restrict the matrix; empty means every
	// registered platform × every registered (non-family) workload.
	Platforms []string
	Workloads []string
	// Scale is the workload scale of each cell (default 40).
	Scale int
}

const (
	// samplePeriodUS is the monitor-on sampling period: 1000 µs of
	// platform time, the production-realistic millisecond sampler.
	samplePeriodUS = 1000
	// repeats is how many times each cell is measured; the repetition with
	// the minimum wall time is recorded. Host wall time is noisy everywhere
	// — scheduler preemption on any platform, goroutine parking on native,
	// process spawn on cluster — and a single sample can swamp the
	// monitoring cost being measured; the minimum is the classic noise
	// filter. Allocation counts do not need the filter (they are stable),
	// so recording the fastest run's counts loses nothing.
	repeats = 3
)

func (o *HarnessOptions) setDefaults() {
	if len(o.Platforms) == 0 {
		o.Platforms = platform.Names()
	}
	if len(o.Workloads) == 0 {
		// Registered workloads plus one fixed burst cell: families are
		// excluded from WorkloadNames (their specs are open-ended), but the
		// overhead trajectory should cover the open-loop request/response
		// shape too, so one canonical spec joins the default matrix. The
		// spec is deliberately wide (16 clients fanning out to 8 servers):
		// a cell must do enough host work to amortize the monitor's fixed
		// setup cost, or its overhead_pct is just noise against the
		// bench-regress ceiling.
		o.Workloads = append(platform.WorkloadNames(),
			"burst:clients=16,servers=8,fanout=4,rate=200000,seed=1")
	}
	if o.Scale == 0 {
		o.Scale = 40
	}
}

// measureCell runs one platform×workload×options cell repeats times and
// returns the run and cost of the repetition with the smallest wall time.
func measureCell(p platform.Platform, w platform.Workload, opts exp.Options) (*exp.Result, exp.HostCost, error) {
	var bestRun *exp.Result
	var bestCost exp.HostCost
	for i := 0; i < repeats; i++ {
		run, cost, err := exp.MeasuredRun(p, w, opts)
		if err != nil {
			return nil, exp.HostCost{}, err
		}
		if bestRun == nil || cost.WallNs < bestCost.WallNs {
			bestRun, bestCost = run, cost
		}
	}
	return bestRun, bestCost, nil
}

// ObservationOverhead runs every platform×workload cell twice — monitor off
// (baseline) and monitor on (millisecond application-level sampling) — and
// records both cells' host costs into a Record, keyed
// "OV/<platform>×<workload>/monitor-{off,on}". Each cell records the
// minimum over repeats runs. Monitor-on entries carry the
// relative host-time overhead in OverheadPct: the paper's "cheap enough to
// leave enabled" claim as a number the trajectory tracks run over run.
func ObservationOverhead(opts HarnessOptions) (Record, error) {
	opts.setDefaults()
	rec := Record{}
	for _, pname := range opts.Platforms {
		p, err := platform.Get(pname)
		if err != nil {
			return nil, err
		}
		for _, wname := range opts.Workloads {
			w, err := platform.GetWorkload(wname)
			if err != nil {
				return nil, err
			}
			runOpts := exp.Options{Options: platform.Options{Scale: opts.Scale}}
			off, offCost, err := measureCell(p, w, runOpts)
			if err != nil {
				return nil, fmt.Errorf("perfstat: %s × %s monitor-off: %w", pname, wname, err)
			}
			monOpts := runOpts
			monOpts.Monitor = &monitor.Config{
				Levels: []monitor.LevelPeriod{
					{Level: core.LevelApplication, PeriodUS: samplePeriodUS},
				},
			}
			on, onCost, err := measureCell(p, w, monOpts)
			if err != nil {
				return nil, fmt.Errorf("perfstat: %s × %s monitor-on: %w", pname, wname, err)
			}
			units := float64(off.Instance.Units())
			key := "OV/" + pname + "×" + wname
			offEntry := NewEntry(offCost.WallNs, offCost.Allocs, offCost.Bytes, units)
			onEntry := NewEntry(onCost.WallNs, onCost.Allocs, onCost.Bytes, float64(on.Instance.Units()))
			if offCost.WallNs > 0 {
				onEntry.OverheadPct = 100 * float64(onCost.WallNs-offCost.WallNs) / float64(offCost.WallNs)
			}
			// Wall-clock platforms park goroutines at scheduling-dependent
			// rates, so even their allocation counts are not comparable
			// across machines: record the cells, exempt them from the gate.
			if !p.Deterministic() {
				offEntry.Nondeterministic, onEntry.Nondeterministic = true, true
			}
			rec[key+"/monitor-off"] = offEntry
			rec[key+"/monitor-on"] = onEntry
		}
	}
	return rec, nil
}

// MicroBenchmarks measures the zero-alloc hot paths — the monitor sample
// path, the native mailbox send and fan-in paths, the sim kernel event loop
// and its sender herd, and the trace recorder/codec — the MJPEG decoder's
// three component kernels, one block group's wire encode, decode and hop
// across a cluster link, and a closed window's trip through the served
// broker and the ctl controller, via testing.Benchmark, and returns them
// keyed "micro/<path>".
// Their allocs_per_op entries are the committed invariant: CI diffs them
// against the baseline, so a change that re-introduces per-operation
// allocation on any of these paths fails the build. The native micros park
// goroutines at a scheduling-dependent rate, but a park allocates nothing,
// so their allocation counts gate too.
func MicroBenchmarks() Record {
	rec := Record{}
	rec["micro/monitor-sample-tick"] = fromBenchmark(testing.Benchmark(BenchMonitorSampleTick))
	rec["micro/aggregator-fold"] = fromBenchmark(testing.Benchmark(BenchAggregatorFold))
	rec["micro/monitor-window"] = fromBenchmark(testing.Benchmark(BenchMonitorWindow))
	rec["micro/native-mailbox-send"] = fromBenchmark(testing.Benchmark(BenchNativeMailboxSend))
	rec["micro/native-mailbox-fanin"] = fromBenchmark(testing.Benchmark(BenchNativeMailboxFanIn))
	rec["micro/sim-kernel-send"] = fromBenchmark(testing.Benchmark(BenchSimKernelSend))
	rec["micro/sim-herd"] = fromBenchmark(testing.Benchmark(BenchSimHerd))
	rec["micro/trace-emit"] = fromBenchmark(testing.Benchmark(benchTraceEmit))
	rec["micro/trace-write-event"] = fromBenchmark(testing.Benchmark(BenchTraceWrite))
	rec["micro/mjpeg-fetch"] = fromBenchmark(testing.Benchmark(BenchMJPEGFetch))
	rec["micro/mjpeg-idct"] = fromBenchmark(testing.Benchmark(BenchMJPEGIDCT))
	rec["micro/mjpeg-reorder"] = fromBenchmark(testing.Benchmark(BenchMJPEGReorder))
	rec["micro/wire-encode-blockgroup"] = fromBenchmark(testing.Benchmark(BenchWireEncodeBlockGroup))
	rec["micro/wire-decode-blockgroup"] = fromBenchmark(testing.Benchmark(BenchWireDecodeBlockGroup))
	rec["micro/cluster-link-hop"] = fromBenchmark(testing.Benchmark(BenchClusterLinkHop))
	rec["micro/broker-publish"] = fromBenchmark(testing.Benchmark(BenchBrokerPublish))
	rec["micro/ctl-observe"] = fromBenchmark(testing.Benchmark(BenchCtlObserve))
	return rec
}

// fromBenchmark converts a benchmark result into a record entry (units =
// executed operations).
func fromBenchmark(r testing.BenchmarkResult) Entry {
	return NewEntry(r.T.Nanoseconds(), uint64(r.MemAllocs), uint64(r.MemBytes), float64(r.N))
}

// BenchMonitorSampleTick measures one monitor sampling tick over the
// registered pipeline workload on smp: SampleAll into a reused buffer, wrap,
// PushBatch into the ring, drain. This is the per-tick cost of leaving the
// streaming monitor enabled.
func BenchMonitorSampleTick(b *testing.B) {
	p := platform.MustGet("smp")
	_, a := p.New("perfstat")
	w := platform.MustGetWorkload("pipeline")
	if _, err := w.Build(a, p, platform.Options{Scale: 4}); err != nil {
		b.Fatal(err)
	}
	n := len(a.Components())
	ring := monitor.NewRing(4096, 2)
	wr := ring.SoleWriter()
	buf := make([]core.FastSample, 0, n)
	batch := make([]monitor.Sample, 0, n)
	drain := make([]monitor.Sample, 0, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, buf, batch = monitor.SampleTick(a, core.LevelApplication, int64(i), wr, buf, batch)
		if ring.Len()+n > ring.Capacity() {
			drain = ring.DrainInto(drain[:0])
		}
	}
}

// burstSpec is the wide burst assembly of the sim-burst benchmark: 16
// clients fanning out to 8 servers and one collector, 25 components.
const burstSpec = "burst:clients=16,servers=8,fanout=4,rate=200000,seed=1"

// burstRun runs the wide burst assembly on smp at scale 8, observed by an
// application sampler every samplePeriodUS and 10 ms windows.
func burstRun(b *testing.B) *exp.Result {
	w, err := platform.GetWorkload(burstSpec)
	if err != nil {
		b.Fatal(err)
	}
	res, err := exp.Run(platform.MustGet("smp"), w, exp.Options{
		Options: platform.Options{Scale: 8},
		Monitor: &monitor.Config{
			Levels:   []monitor.LevelPeriod{{Level: core.LevelApplication, PeriodUS: samplePeriodUS}},
			WindowUS: 10_000,
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchAggregatorFold measures the aggregator's fold of one sampling tick
// of the wide burst assembly: its 25 samples, each component's counters
// and clock advanced from the tick before, with the window flushed every
// 10 ticks, as a 1 ms sampler under 10 ms windows does. It allocates
// nothing.
func BenchAggregatorFold(b *testing.B) {
	app := burstRun(b).App
	sweep := app.SampleAll(core.LevelApplication, nil)
	tick := make([]monitor.Sample, len(sweep))
	for j := range tick {
		tick[j] = monitor.Sample{Level: core.LevelApplication, FastSample: sweep[j]}
	}
	agg := monitor.NewAggregator(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range tick {
			s := &tick[j]
			s.TimeUS += samplePeriodUS
			s.SendOps += uint64(j % 4)
			s.SendUS += int64(j%4) * 7
			s.RecvOps++
			s.Depth = (i + j) % 5
			agg.Add(*s)
		}
		if i%10 == 9 {
			agg.Flush(tick[0].TimeUS)
		}
	}
}

// windowsPerLog is how many windows one monitor of BenchMonitorWindow logs
// before a fresh one takes over: about one sim-burst round's worth.
const windowsPerLog = 20_000

// BenchMonitorWindow measures one closed window's trip to the sinks: the
// monitor's built-in memory sink encodes it into its arena and one
// configured SinkFunc receives it. The windows are the wide burst
// assembly's own. The arena grows amortized, and a fresh monitor takes
// over every windowsPerLog windows, so the log stays bounded.
func BenchMonitorWindow(b *testing.B) {
	res := burstRun(b)
	ws := res.Monitor.Windows()
	if len(ws) == 0 {
		b.Fatal("the burst run closed no window")
	}
	var seen int
	cfg := monitor.Config{
		RingCapacity: 1,
		Sinks: []monitor.Sink{monitor.SinkFunc(func(w monitor.WindowStats) error {
			seen += w.Samples
			return nil
		})},
	}
	var mon *monitor.Monitor
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%windowsPerLog == 0 {
			var err error
			if mon, err = monitor.New(res.App, cfg); err != nil {
				b.Fatal(err)
			}
		}
		mon.Ingest(ws[i%len(ws)])
	}
	if seen == 0 {
		b.Fatal("the sink saw no sample")
	}
}

// BenchNativeMailboxSend measures one instrumented send+receive round
// through the native mailbox, the wall-clock platform's hot path.
func BenchNativeMailboxSend(b *testing.B) {
	m, a := platform.MustGet("native").New("perfstat")
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
	b.ReportAllocs()
	b.ResetTimer()
	if err := a.Start(); err != nil {
		b.Fatal(err)
	}
	if err := m.Run(int64(10 * 60 * 1e6)); err != nil {
		b.Fatal(err)
	}
}

// fanInProducers is the fan-in micro's producer count: the eight servers
// that feed the collector of the canonical burst cell.
const fanInProducers = 8

// BenchNativeMailboxFanIn measures one instrumented send+receive round
// through the collector shape of a served burst: fanInProducers producers
// blocked on one one-message inbox, so nearly every send parks and every
// receive admits the next queued sender's message.
func BenchNativeMailboxFanIn(b *testing.B) {
	const msgBytes = 64
	m, a := platform.MustGet("native").New("perfstat")
	cons := a.MustNewComponent("cons", func(ctx *core.Ctx) {
		for {
			if _, ok := ctx.Receive("in"); !ok {
				return
			}
		}
	})
	cons.MustAddProvided("in", msgBytes)
	for p := 0; p < fanInProducers; p++ {
		n := b.N / fanInProducers
		if p < b.N%fanInProducers {
			n++
		}
		prod := a.MustNewComponent(fmt.Sprintf("prod%d", p), func(ctx *core.Ctx) {
			for i := 0; i < n; i++ {
				ctx.Send("out", nil, msgBytes)
			}
		})
		prod.MustAddRequired("out")
		a.MustConnect(prod, "out", cons, "in")
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := a.Start(); err != nil {
		b.Fatal(err)
	}
	if err := m.Run(int64(10 * 60 * 1e6)); err != nil {
		b.Fatal(err)
	}
}

// BenchSimKernelSend measures one blocking put+get round through the sim
// kernel's queue — park, wake and resume riding the recycled event structs.
func BenchSimKernelSend(b *testing.B) {
	k := sim.NewKernel()
	q := sim.NewQueue[int](k, "q", 1)
	n := b.N
	k.Spawn("prod", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			q.Put(p, i)
		}
		q.Close()
	})
	k.Spawn("cons", func(p *sim.Proc) {
		for {
			if _, ok := q.Get(p); !ok {
				return
			}
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// herdBox is a one-message box gated by two broadcast signals, the shape of
// the simulated bindings' mailboxes: a take fires space and wakes every
// blocked sender, and all but the first find the box full again.
type herdBox struct {
	full        bool
	space, data *sim.Signal
}

// Blocked is a sender's wait condition: the box is full.
func (h *herdBox) Blocked(int64) bool { return h.full }

// herdEmpty is the receiver's wait condition: the box is empty.
type herdEmpty herdBox

func (h *herdEmpty) Blocked(int64) bool { return !h.full }

// BenchSimHerd measures one handoff through a herdBox that eight senders
// contend for: the receiver's take wakes all of them, one fills the box and
// the kernel re-parks the rest without switching into them.
func BenchSimHerd(b *testing.B) {
	const senders = 8
	k := sim.NewKernel()
	box := &herdBox{space: sim.NewSignal(k, "space"), data: sim.NewSignal(k, "data")}
	n := b.N
	for i := 0; i < senders; i++ {
		share := n / senders
		if i < n%senders {
			share++
		}
		k.Spawn(fmt.Sprintf("send%d", i), func(p *sim.Proc) {
			for range share {
				box.space.AwaitWhile(p, box, 0)
				box.full = true
				box.data.Fire()
			}
		})
	}
	k.Spawn("recv", func(p *sim.Proc) {
		for range n {
			box.data.AwaitWhile(p, (*herdEmpty)(box), 0)
			box.full = false
			box.space.Fire()
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// benchTraceEmit measures the recorder's per-event collection cost.
func benchTraceEmit(b *testing.B) {
	r := trace.NewRecorder(1 << 16)
	e := core.Event{TimeUS: 1, Kind: core.EvSend, Component: "Fetch",
		Interface: "fetchIdct1", Bytes: 4352, DurUS: 13}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Emit(e)
	}
}

// BenchTraceWrite measures the binary codec per event: each Write call
// encodes a 4096-event trace and counts as 4096 operations.
func BenchTraceWrite(b *testing.B) {
	r := trace.NewRecorder(4096)
	for i := 0; i < 4096; i++ {
		r.Emit(core.Event{TimeUS: int64(i), Kind: core.EvSend,
			Component: "Fetch", Interface: "fetchIdct1", Bytes: 4352, DurUS: 13})
	}
	events := r.Events()
	var sink countWriter
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += len(events) {
		if err := trace.Write(&sink, events); err != nil {
			b.Fatal(err)
		}
	}
}

type countWriter struct{ n int }

func (c *countWriter) Write(p []byte) (int, error) { c.n += len(p); return len(p), nil }

// refFrame encodes the reference picture the MJPEG micros decode: picture 1
// of the reference sequence (128×96, Q75, 4:4:4).
func refFrame(b *testing.B) []byte {
	frame, err := mjpeg.Encode(mjpeg.SynthFrame(exp.RefW, exp.RefH, 1),
		mjpeg.EncodeOptions{Quality: exp.RefQuality})
	if err != nil {
		b.Fatal(err)
	}
	return frame
}

// refBlocks parses the reference picture and entropy-decodes it.
func refBlocks(b *testing.B) (*mjpeg.FrameHeader, []mjpeg.CoeffBlock) {
	h, err := mjpeg.ParseFrame(refFrame(b))
	if err != nil {
		b.Fatal(err)
	}
	blocks, err := h.DecodeBlocks()
	if err != nil {
		b.Fatal(err)
	}
	return h, blocks
}

// BenchMJPEGFetch measures the Fetch component's work on one reference
// picture: ParseFrame, then the Huffman decode of its scan into coefficient
// blocks. One op is one picture.
func BenchMJPEGFetch(b *testing.B) {
	frame := refFrame(b)
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, err := mjpeg.ParseFrame(frame)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := h.DecodeBlocks(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchMJPEGIDCT measures the IDCT component's work on one block:
// dequantization, inverse DCT and level shift, cycling through the blocks
// of the reference picture. One op is one block; it allocates nothing.
func BenchMJPEGIDCT(b *testing.B) {
	h, blocks := refBlocks(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pixelSink = h.TransformBlock(&blocks[i%len(blocks)])
	}
}

// pixelSink keeps the IDCT micro's result live.
var pixelSink mjpeg.PixelBlock

// BenchMJPEGReorder measures the Reorder component's work on one reference
// picture: placing its pixel blocks and color-converting them into an
// image. One op is one picture.
func BenchMJPEGReorder(b *testing.B) {
	h, blocks := refBlocks(b)
	pix := make([]mjpeg.PixelBlock, len(blocks))
	for i := range blocks {
		pix[i] = h.TransformBlock(&blocks[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.AssembleFrame(pix); err != nil {
			b.Fatal(err)
		}
	}
}

// blockGroupFrame is the data frame that carries a reference block group
// from Fetch to an IDCT on another shard: group 1 of the reference picture,
// split the decoder's 18 ways.
func blockGroupFrame(b *testing.B) wire.Frame {
	h, blocks := refBlocks(b)
	groups, err := mjpeg.SplitBlocks(0, h, blocks, mjpegapp.DefaultGroupsPerFrame)
	if err != nil {
		b.Fatal(err)
	}
	g := groups[1]
	return wire.Frame{Type: wire.TypeData, Edge: 1, Bytes: int64(g.PayloadBytes()), From: "Fetch", Payload: g}
}

// BenchWireEncodeBlockGroup measures encoding one block-group data frame
// into a warm buffer. It allocates nothing.
func BenchWireEncodeBlockGroup(b *testing.B) {
	f := blockGroupFrame(b)
	buf, err := wire.AppendFrame(nil, &f)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if buf, err = wire.AppendFrame(buf[:0], &f); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchWireDecodeBlockGroup measures decoding one block-group data frame
// body, payload included.
func BenchWireDecodeBlockGroup(b *testing.B) {
	f := blockGroupFrame(b)
	enc, err := wire.AppendFrame(nil, &f)
	if err != nil {
		b.Fatal(err)
	}
	body := wire.Raw(enc).Body()
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := wire.DecodeFrame(body, &f); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchClusterLinkHop measures one block-group data frame crossing a link
// between two cluster workers: written to one end of a unix socket pair,
// read off the other through its buffered reader and decoded, as a
// consuming worker's link reader does. A writer goroutine keeps the link
// full, so one read syscall takes in several frames.
func BenchClusterLinkHop(b *testing.B) {
	f := blockGroupFrame(b)
	enc, err := wire.AppendFrame(nil, &f)
	if err != nil {
		b.Fatal(err)
	}
	fa, fz, err := wire.SocketPair()
	if err != nil {
		b.Fatal(err)
	}
	in, err := wire.FileConn(fa)
	if err != nil {
		fz.Close()
		b.Fatal(err)
	}
	defer in.Close()
	out, err := wire.FileConn(fz)
	if err != nil {
		b.Fatal(err)
	}
	defer out.Close()
	n := b.N
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	b.ResetTimer()
	written := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			if err := in.WriteFrame(&f); err != nil {
				written <- err
				return
			}
		}
		written <- nil
	}()
	var raw wire.Raw
	var got wire.Frame
	for i := 0; i < n; i++ {
		if raw, err = out.ReadRaw(raw); err != nil {
			b.Fatal(err)
		}
		if err := wire.DecodeFrame(raw.Body(), &got); err != nil {
			b.Fatal(err)
		}
	}
	if err := <-written; err != nil {
		b.Fatal(err)
	}
}

// collectorWindow is the wide burst assembly's last closed window of its
// collector, flattened into the record the broker and ctl consume.
func collectorWindow(b *testing.B) monitor.WindowRecord {
	ws := burstRun(b).Monitor.Windows()
	for i := len(ws) - 1; i >= 0; i-- {
		if ws[i].Component == "col" {
			return monitor.NewWindowRecord(ws[i])
		}
	}
	b.Fatal("the burst run closed no collector window")
	return monitor.WindowRecord{}
}

// BenchBrokerPublish measures one serve.Broker.Publish of a collector
// window to one subscriber, which takes the event off its queue before the
// next publish: the served fan-out's cost per window and subscriber,
// before any SSE encoding. It allocates nothing.
func BenchBrokerPublish(b *testing.B) {
	br := serve.NewBroker(0)
	sub := br.Subscribe("bench")
	defer br.Unsubscribe(sub)
	ev := serve.Event{Assembly: "bench", Generation: 1, Window: collectorWindow(b)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.Seq = uint64(i)
		br.Publish(ev)
		<-sub.C()
	}
}

// BenchCtlObserve measures one ctl.Controller.Observe of a collector window
// under the policy a served assembly runs: a threshold every window meets,
// held for 3 windows and cooled down for 5, so of every 8 windows 2 grow
// the streak, 1 fires and 5 are suppressed. Each firing allocates the
// returned slice.
func BenchCtlObserve(b *testing.B) {
	c := ctl.NewController()
	if err := c.SetPolicies([]ctl.Policy{{
		Name: "hold", Component: "col",
		Metric: ctl.MetricDepthHigh, Op: ">=", Threshold: 0,
		HoldWindows: 3, CooldownWindows: 5,
		Action: ctl.Action{Type: ctl.ActSetPeriod, Level: "application", PeriodUS: samplePeriodUS},
	}}); err != nil {
		b.Fatal(err)
	}
	rec := collectorWindow(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		firingSink = c.Observe(rec)
	}
}

// firingSink keeps the ctl micro's result live.
var firingSink []ctl.Firing
