package main

import (
	"fmt"
	"time"

	"embera/internal/burstwl"
	"embera/internal/core"
	"embera/internal/monitor"
	"embera/internal/platform"
)

// burstArg is the harness's wide burst spec (16 clients fanning out to 8
// servers) with the benchmark seed; the request count comes from Scale.
func burstArg(seed int64) string {
	return fmt.Sprintf("clients=16,servers=8,fanout=4,rate=200000,seed=%d", seedArg(seed))
}

// seedArg maps any benchmark seed onto the burst grammar's seed range.
func seedArg(seed int64) int64 { return int64(uint64(seed) % (1 << 31)) }

// simPlatforms are the paper's two platforms, in the order each round runs
// them.
var simPlatforms = []string{"smp", "sti7200"}

// simRef is the first observed run on a platform: every later run there
// must reproduce it exactly.
type simRef struct {
	makespanUS       int64
	checksum         uint64
	units            int
	samples, windows uint64
}

// simRound is one round: an observed and a bare run on each platform.
type simRound struct {
	traced bool
	obs    []*cellRun // by simPlatforms index
	bare   []*cellRun
}

func runSimBurst(b *bench) error {
	reqs, warmReqs, setups := 400, 20, 3
	if b.cfg.tiny {
		reqs, warmReqs, setups = 12, 4, 1
	}
	arg := burstArg(b.cfg.seed)

	// Set-up, repeated so its median is steady: resolve both platforms and
	// the workload, derive the closed-form expectation, and run one small
	// observed and bare pair per platform so lazy initialisation is done
	// before the first timed run.
	var setupTimes []float64
	var cells []cell
	var wantUnits int
	var wantSum uint64
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		w, err := platform.GetWorkload(burstwl.Family + ":" + arg)
		if err != nil {
			return err
		}
		spec, err := burstwl.ParseSpec(arg)
		if err != nil {
			return err
		}
		spec.Reqs = reqs
		wantUnits, wantSum = spec.Expected()
		cells = cells[:0]
		for _, name := range simPlatforms {
			p, err := platform.Get(name)
			if err != nil {
				return err
			}
			cells = append(cells, cell{p: p, w: w, opts: platform.Options{Scale: reqs}})
			warm := cell{p: p, w: w, opts: platform.Options{Scale: warmReqs}}
			for _, observed := range []bool{true, false} {
				if _, err := b.runCell(warm, observed, false, false, 0); err != nil {
					return fmt.Errorf("set-up run: %w", err)
				}
			}
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
	}
	b.set("setup_s", median(setupTimes))

	refs := make([]*simRef, len(cells))
	var rounds []simRound
	var last simRound // the latest traced round, with its results kept
	rss := b.measureRounds(func(traced, observedFirst bool, parent int) {
		round := simRound{traced: traced}
		ok := true
		for i, c := range cells {
			obs, bare, pairOK := b.pair(c, observedFirst, traced, parent, func(cr *cellRun, observed bool) error {
				return checkSimRun(cr, c.p.Name(), observed, wantUnits, wantSum, &refs[i])
			})
			ok = ok && pairOK
			round.obs, round.bare = append(round.obs, obs), append(round.bare, bare)
		}
		if !ok {
			return
		}
		if traced {
			for _, o := range last.obs {
				o.res = nil
			}
			last = round
		}
		rounds = append(rounds, round)
	})
	if len(rounds) == 0 || (b.cfg.trace && last.obs == nil) {
		return fmt.Errorf("no round passed its checks")
	}

	var ups, slow []float64
	for _, rd := range rounds {
		var units, obsS, bareS float64
		for i := range rd.obs {
			units += float64(rd.obs[i].units)
			obsS += seconds(rd.obs[i].total)
			bareS += seconds(rd.bare[i].total)
		}
		ups = append(ups, units/obsS)
		slow = append(slow, obsS/bareS)
	}
	b.set("units_per_s", median(ups))
	b.set("monitor_slowdown", median(slow))
	b.set("peak_rss_mb", median(rss))
	if b.cfg.trace {
		b.simBurstLayers(rounds, last)
	}
	return nil
}

// checkSimRun holds a simulated run to its closed form and to the
// platform's reference run: virtual makespan, checksum, units, samples and
// windows repeat exactly across repeats, observed and bare alike.
func checkSimRun(cr *cellRun, platform string, observed bool, wantUnits int, wantSum uint64, ref **simRef) error {
	got := simRef{makespanUS: cr.makespanUS, checksum: cr.checksum, units: cr.units,
		samples: cr.samples, windows: cr.windows}
	if got.units != wantUnits || got.checksum != wantSum {
		return fmt.Errorf("%s: %d units, checksum %016x; closed form says %d, %016x",
			platform, got.units, got.checksum, wantUnits, wantSum)
	}
	if *ref == nil {
		if observed {
			*ref = &got
		}
		return nil
	}
	want := **ref
	if !observed {
		got.samples, got.windows = want.samples, want.windows
	}
	if got != want {
		return fmt.Errorf("%s: run does not repeat the reference: got %+v, want %+v", platform, got, want)
	}
	return nil
}

// simBurstLayers derives the per-layer metrics from the traced rounds;
// last is the latest traced round, whose results the replays reuse.
func (b *bench) simBurstLayers(rounds []simRound, last simRound) {
	var prep, runS, fin, bareRun, msgs, bytes, samples, windows, dropped, sinkErrs, events []float64
	var nsPerSample, measured, untracedRun []float64
	nsPerMsg := make([][]float64, len(simPlatforms))
	for _, rd := range rounds {
		var p, r, f, br, m, by, s, w, d, se, ev float64
		for i := range rd.obs {
			o, bare := rd.obs[i], rd.bare[i]
			p += seconds(o.prepare)
			r += seconds(o.run)
			f += seconds(o.finish)
			br += seconds(bare.run)
			m += float64(o.msgs)
			by += float64(o.bytes)
			s += float64(o.samples)
			w += float64(o.windows)
			d += float64(o.ringDropped)
			se += float64(o.sinkErrors)
			ev += float64(o.traceEvents + bare.traceEvents)
			if rd.traced {
				nsPerMsg[i] = append(nsPerMsg[i], float64(bare.run.Nanoseconds())/float64(bare.msgs))
			}
		}
		if !rd.traced {
			untracedRun = append(untracedRun, r)
			continue
		}
		prep, runS, fin, bareRun = append(prep, p), append(runS, r), append(fin, f), append(bareRun, br)
		msgs, bytes = append(msgs, m), append(bytes, by)
		samples, windows = append(samples, s), append(windows, w)
		dropped, sinkErrs, events = append(dropped, d), append(sinkErrs, se), append(events, ev)
		measured = append(measured, r-br)
		nsPerSample = append(nsPerSample, (r-br)*1e9/s)
	}
	b.set("exp.prepare_s", median(prep))
	b.set("exp.run_s", median(runS))
	b.set("exp.finish_s", median(fin))
	b.set("exp.bare_run_s", median(bareRun))
	b.set("core.msgs", median(msgs))
	b.set("core.bytes", median(bytes))
	b.set("monitor.samples", median(samples))
	b.set("monitor.windows", median(windows))
	b.set("monitor.ring_dropped", median(dropped))
	b.set("monitor.sink_errors", median(sinkErrs))
	b.set("monitor.ns_per_sample", median(nsPerSample))
	b.set("trace.events", median(events))
	b.set("trace.overhead_pct", 100*(median(runS)/median(untracedRun)-1))
	for i, name := range simPlatforms {
		b.set("sim.makespan_us."+name, float64(last.obs[i].makespanUS))
		b.set("sim.ns_per_msg."+name, median(nsPerMsg[i]))
	}

	// Replays of the last traced round's own data: the sampler tick and the
	// aggregator fold on each platform's quiesced assembly. The predicted
	// monitor cost per round is ticks × tick cost + samples × fold cost;
	// whatever the measured cost exceeds it by is the residual.
	var tickSum, foldSum, predicted float64
	for _, o := range last.obs {
		runID := b.spans.newRun()
		t0 := time.Now()
		tickNS, foldNS := tickFoldReplay(o.res.App, 2000)
		b.spans.add("replay.monitor.tick+fold", 0, runID, t0, time.Now())
		tickSum += tickNS
		foldSum += foldNS
		n := float64(len(o.res.App.Components()))
		s := float64(o.samples)
		predicted += (s/n*tickNS + s*foldNS) / 1e9
	}
	b.set("monitor.tick_ns", tickSum/float64(len(last.obs)))
	b.set("monitor.fold_ns", foldSum/float64(len(last.obs)))
	m := median(measured)
	b.set("monitor.residual_pct", 100*(m-predicted)/m)
}

// tickFoldReplay replays the monitor's sample path on a quiesced assembly:
// ticks SampleTick sweeps into a ring (ns per tick), then the aggregator
// fold of that tick output — Add per sample, Flush every window of ticks
// (ns per sample).
func tickFoldReplay(app *core.App, ticks int) (tickNS, foldNS float64) {
	n := len(app.Components())
	ring := monitor.NewRing(4096, 1)
	wr := ring.SoleWriter()
	buf := make([]core.FastSample, 0, n)
	batch := make([]monitor.Sample, 0, n)
	drain := make([]monitor.Sample, 0, 4096)
	t0 := time.Now()
	for i := 0; i < ticks; i++ {
		_, buf, batch = monitor.SampleTick(app, core.LevelApplication, int64(i)*samplePeriodUS, wr, buf, batch)
		if ring.Len()+n > ring.Capacity() {
			drain = ring.DrainInto(drain[:0])
		}
	}
	tickNS = float64(time.Since(t0).Nanoseconds()) / float64(ticks)

	var samples []monitor.Sample
	for i := 0; i < ticks; i++ {
		_, buf, batch = monitor.SampleTick(app, core.LevelApplication, int64(i)*samplePeriodUS, wr, buf, batch)
		samples = append(samples, batch...)
		drain = ring.DrainInto(drain[:0])
	}
	perWindow := windowUS / samplePeriodUS
	agg := monitor.NewAggregator(0)
	t0 = time.Now()
	for i := 0; i < ticks; i++ {
		for _, s := range samples[i*len(batch) : (i+1)*len(batch)] {
			agg.Add(s)
		}
		if (i+1)%perWindow == 0 {
			agg.Flush(int64(i+1) * samplePeriodUS)
		}
	}
	if len(samples) > 0 {
		foldNS = float64(time.Since(t0).Nanoseconds()) / float64(len(samples))
	}
	return tickNS, foldNS
}
