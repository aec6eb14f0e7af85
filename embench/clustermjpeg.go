package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"runtime"
	"time"

	"embera/internal/cluster"
	"embera/internal/core"
	"embera/internal/exp"
	"embera/internal/mjpeg"
	"embera/internal/monitor"
	"embera/internal/platform"
	"embera/internal/sim"
	"embera/internal/wire"
)

// clusterWorkers is the shard count of the cluster workload.
const clusterWorkers = 2

// pidCluster is the registered cluster platform with one addition the
// benchmark needs from outside: its machines expose WorkerPIDs, so the leak
// guard can probe every worker process after its run.
type pidCluster struct{ platform.Platform }

func (p pidCluster) New(appName string) (platform.Machine, *core.App) {
	m, app := cluster.New(appName, clusterWorkers, runtime.NumCPU())
	return clusterMachine{m}, app
}

// clusterMachine forwards the seams exp.Run probes for structurally to the
// cluster machine; every other method (Run, NowUS, Interrupt, WireFrames,
// LostFrames, WorkerPIDs) is the embedded machine's own.
type clusterMachine struct{ *cluster.Machine }

func (c clusterMachine) Kernel() *sim.Kernel { return nil }

func (c clusterMachine) Distribute(workload string, opts platform.Options, inst platform.Instance) error {
	return c.Machine.Distribute(workload, opts.Scale, opts.MessageBytes, opts.Stream, inst)
}

func (c clusterMachine) TakeMonitor(mon *monitor.Monitor, cfg *monitor.Config) {
	c.AttachMonitor(mon, cfg)
}

// rotate returns the pictures of parts starting at the seed's offset, so
// each seed decodes the same pictures in a different order (and with a
// different checksum).
func rotate(parts [][]byte, seed int64) [][]byte {
	k := int(uint64(seed) % uint64(len(parts)))
	return append(append([][]byte(nil), parts[k:]...), parts[:k]...)
}

// mjpegChecksum is the decoder workload's checksum computed independently:
// each picture decoded by the reference decoder, hashed with its stream
// index, the hashes summed.
func mjpegChecksum(parts [][]byte) (uint64, error) {
	var sum uint64
	for i, part := range parts {
		img, err := mjpeg.Decode(part)
		if err != nil {
			return 0, err
		}
		h := fnv.New64a()
		fmt.Fprintf(h, "%d:%d:%d:%t:", i, img.W, img.H, img.Gray)
		h.Write(img.Pix)
		sum += h.Sum64()
	}
	return sum, nil
}

// clusterRound is one observed and one bare run.
type clusterRound struct {
	traced    bool
	obs, bare *cellRun
}

func runClusterMJPEG(b *bench) error {
	frames, setups := 240, 3
	if b.cfg.tiny {
		frames, setups = 6, 1
	}
	const warmFrames = 4
	base, err := platform.Get("cluster")
	if err != nil {
		return err
	}
	p := pidCluster{base}
	w, err := platform.GetWorkload("mjpeg")
	if err != nil {
		return err
	}

	// Set-up, repeated so its median is steady: synthesize the input, work
	// out its expected checksum, and run a small bare cluster job so the
	// worker start-up path is warm. The first repetition synthesizes through
	// exp.RefStream (which caches the stream); the others synthesize afresh
	// with the same encoder and must produce the same bytes.
	var setupTimes []float64
	var parts [][]byte
	var wantSum uint64
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		ref, err := exp.RefStream(frames)
		if err != nil {
			return err
		}
		if i > 0 {
			fresh, err := mjpeg.SynthStream(exp.RefW, exp.RefH, frames, mjpeg.EncodeOptions{Quality: exp.RefQuality})
			if err != nil {
				return err
			}
			if !bytes.Equal(fresh, ref) {
				return fmt.Errorf("stream synthesis is not deterministic")
			}
		}
		all, err := mjpeg.SplitStream(ref)
		if err != nil {
			return err
		}
		parts = rotate(all, b.cfg.seed)
		if wantSum, err = mjpegChecksum(parts); err != nil {
			return err
		}
		warm := cell{p: p, w: w, opts: platform.Options{Stream: bytes.Join(parts[:warmFrames], nil)}}
		if _, err := b.runCell(warm, false, false, false, 0); err != nil {
			return fmt.Errorf("set-up run: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
	}
	b.set("setup_s", median(setupTimes))

	c := cell{p: p, w: w, opts: platform.Options{Stream: bytes.Join(parts, nil)}}
	var rounds []clusterRound
	var last *cellRun // the latest traced observed run, with its result kept
	var refFrames uint64
	rss := b.measureRounds(func(traced, observedFirst bool, parent int) {
		obs, bare, ok := b.pair(c, observedFirst, traced, parent, func(cr *cellRun, _ bool) error {
			return checkClusterRun(cr, frames, wantSum, &refFrames)
		})
		if !ok {
			return
		}
		if traced {
			if last != nil {
				last.res = nil
			}
			last = obs
		}
		rounds = append(rounds, clusterRound{traced: traced, obs: obs, bare: bare})
	})
	if len(rounds) == 0 || (b.cfg.trace && last == nil) {
		return fmt.Errorf("no round passed its checks")
	}

	var ups, slow []float64
	for _, rd := range rounds {
		ups = append(ups, float64(rd.obs.units)/seconds(rd.obs.total))
		slow = append(slow, seconds(rd.obs.total)/seconds(rd.bare.total))
	}
	b.set("units_per_s", median(ups))
	b.set("monitor_slowdown", median(slow))
	b.set("peak_rss_mb", median(rss))
	if b.cfg.trace {
		return b.clusterLayers(rounds, last, parts)
	}
	return nil
}

// checkClusterRun holds a cluster run to the independently computed
// checksum, the picture count, and the first run's cross-shard frame count
// (placement and message counts are fixed by the stream).
func checkClusterRun(cr *cellRun, frames int, wantSum uint64, refFrames *uint64) error {
	if cr.units != frames || cr.checksum != wantSum {
		return fmt.Errorf("cluster: decoded %d pictures, checksum %016x; want %d, %016x",
			cr.units, cr.checksum, frames, wantSum)
	}
	if cr.wireFrames == 0 {
		return fmt.Errorf("cluster: no frame crossed shards")
	}
	if *refFrames == 0 {
		*refFrames = cr.wireFrames
	} else if cr.wireFrames != *refFrames {
		return fmt.Errorf("cluster: %d cross-shard frames, first run had %d", cr.wireFrames, *refFrames)
	}
	return nil
}

// clusterLayers derives the per-layer metrics from the traced rounds; last
// is the latest traced observed run, whose results the replays reuse.
func (b *bench) clusterLayers(rounds []clusterRound, last *cellRun, parts [][]byte) error {
	var prep, runS, fin, bareRun, msgs, bytesSent, samples, windows, dropped, sinkErrs, events []float64
	var nsPerSample, frames, lost, framesPerS, untracedRun []float64
	for _, rd := range rounds {
		o := rd.obs
		if !rd.traced {
			untracedRun = append(untracedRun, seconds(o.run))
			continue
		}
		prep = append(prep, seconds(o.prepare))
		runS = append(runS, seconds(o.run))
		fin = append(fin, seconds(o.finish))
		bareRun = append(bareRun, seconds(rd.bare.run))
		msgs, bytesSent = append(msgs, float64(o.msgs)), append(bytesSent, float64(o.bytes))
		samples = append(samples, float64(o.samples))
		windows = append(windows, float64(o.windows))
		dropped = append(dropped, float64(o.ringDropped))
		sinkErrs = append(sinkErrs, float64(o.sinkErrors))
		events = append(events, float64(o.traceEvents+rd.bare.traceEvents))
		nsPerSample = append(nsPerSample, (seconds(o.run)-seconds(rd.bare.run))*1e9/float64(o.samples))
		frames = append(frames, float64(o.wireFrames))
		framesPerS = append(framesPerS, float64(o.wireFrames)/seconds(o.run))
		lost = append(lost, float64(o.lostFrames))
	}
	b.set("exp.prepare_s", median(prep))
	b.set("exp.run_s", median(runS))
	b.set("exp.finish_s", median(fin))
	b.set("exp.bare_run_s", median(bareRun))
	b.set("core.msgs", median(msgs))
	b.set("core.bytes", median(bytesSent))
	b.set("monitor.samples", median(samples))
	b.set("monitor.windows", median(windows))
	b.set("monitor.ring_dropped", median(dropped))
	b.set("monitor.sink_errors", median(sinkErrs))
	b.set("monitor.ns_per_sample", median(nsPerSample))
	b.set("trace.events", median(events))
	b.set("trace.overhead_pct", 100*(median(runS)/median(untracedRun)-1))
	b.set("cluster.wire_frames", median(frames))
	b.set("cluster.lost_frames", median(lost))
	b.set("cluster.frames_per_s", median(framesPerS))

	// Replays of this run's own data through the wire codec.
	runID := b.spans.newRun()
	t0 := time.Now()
	enc, dec, err := gobReplay(parts[:2], 10)
	if err != nil {
		return err
	}
	b.spans.add("replay.wire.gob", 0, runID, t0, time.Now())
	b.set("wire.gob_encode_ns", enc)
	b.set("wire.gob_decode_ns", dec)
	t0 = time.Now()
	winNS, err := windowsReplay(last.res.Monitor.Windows(), 20)
	if err != nil {
		return err
	}
	b.spans.add("replay.wire.windows", 0, runID, t0, time.Now())
	b.set("wire.windows_encode_ns", winNS)
	return nil
}

// gobReplay encodes and decodes, passes times over, the data frames the
// decoder sends across shards for the given pictures: every BlockGroup
// Fetch emits and every PixelGroup an IDCT returns, as gob payloads. It
// returns ns per frame for each direction.
func gobReplay(pictures [][]byte, passes int) (encNS, decNS float64, err error) {
	var frames []wire.Frame
	for fi, pic := range pictures {
		h, err := mjpeg.ParseFrame(pic)
		if err != nil {
			return 0, 0, err
		}
		blocks, err := h.DecodeBlocks()
		if err != nil {
			return 0, 0, err
		}
		groups, err := mjpeg.SplitBlocks(fi, h, blocks, 18)
		if err != nil {
			return 0, 0, err
		}
		for gi := range groups {
			pg := mjpeg.TransformGroup(&groups[gi])
			frames = append(frames,
				wire.Frame{Type: wire.TypeData, Edge: 1, Bytes: int64(groups[gi].PayloadBytes()), From: "Fetch", Payload: groups[gi]},
				wire.Frame{Type: wire.TypeData, Edge: 2, Bytes: int64(pg.PayloadBytes()), From: "IDCT_1", Payload: pg})
		}
	}
	encoded := make([][]byte, len(frames))
	var buf []byte
	t0 := time.Now()
	for p := 0; p < passes; p++ {
		for i := range frames {
			if buf, err = wire.AppendFrame(buf[:0], &frames[i]); err != nil {
				return 0, 0, err
			}
			if p == 0 {
				encoded[i] = append([]byte(nil), buf...)
			}
		}
	}
	encNS = float64(time.Since(t0).Nanoseconds()) / float64(passes*len(frames))
	var f wire.Frame
	t0 = time.Now()
	for p := 0; p < passes; p++ {
		for i := range encoded {
			if err := wire.DecodeFrame(encoded[i][4:], &f); err != nil {
				return 0, 0, err
			}
		}
	}
	decNS = float64(time.Since(t0).Nanoseconds()) / float64(passes*len(frames))
	return encNS, decNS, nil
}

// windowsReplay encodes the run's own windows as one windows frame, passes
// times over, in ns per window.
func windowsReplay(ws []monitor.WindowStats, passes int) (float64, error) {
	if len(ws) == 0 {
		return 0, nil
	}
	f := wire.Frame{Type: wire.TypeWindows, Windows: ws}
	var buf []byte
	var err error
	t0 := time.Now()
	for p := 0; p < passes; p++ {
		if buf, err = wire.AppendFrame(buf[:0], &f); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(passes*len(ws)), nil
}
