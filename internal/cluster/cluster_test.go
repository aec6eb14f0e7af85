package cluster_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"embera/internal/cluster"
	"embera/internal/core"
	"embera/internal/exp"
	"embera/internal/monitor"
	"embera/internal/pipelineapp"
	"embera/internal/platform"
	"embera/internal/wire"
)

// TestMain lets this test binary serve as a cluster worker shard: the
// coordinator re-execs its own executable once per shard. A normal test run
// passes straight through.
func TestMain(m *testing.M) {
	cluster.MaybeWorkerMain()
	os.Exit(m.Run())
}

// The data-path failure workloads send struct payloads from Source to
// Consumer, which land on different shards of two. noCodec has no wire
// codec; picky has one whose decoder rejects its own encoding. They are
// registered at init, so the re-exec'd workers rebuild them too.
type (
	noCodec struct{ N int }
	picky   struct{ N int }
)

func init() {
	wire.Register("cluster_test.picky",
		func(buf []byte, p picky) ([]byte, error) {
			return binary.LittleEndian.AppendUint64(buf, uint64(p.N)), nil
		},
		func([]byte) (picky, error) { return picky{}, errors.New("picky rejects every encoding") })
	for name, payload := range map[string]func(int) any{
		"wirefail-nocodec": func(i int) any { return noCodec{i} },
		"wirefail-picky":   func(i int) any { return picky{i} },
	} {
		platform.RegisterWorkload(name, func() platform.Workload { return &failWorkload{name: name, payload: payload} })
	}
}

type failWorkload struct {
	name     string
	payload  func(int) any
	received atomic.Int64
	want     int
}

func (w *failWorkload) Name() string     { return w.name }
func (w *failWorkload) Describe() string { return "struct payloads the wire cannot carry" }

func (w *failWorkload) Build(a *core.App, _ platform.Platform, opts platform.Options) (platform.Instance, error) {
	w.want = opts.Scale
	src, err := a.NewComponent("Source", func(ctx *core.Ctx) {
		for i := 0; i < w.want && ctx.Send("out", w.payload(i), 8); i++ {
		}
	})
	if err != nil {
		return nil, err
	}
	dst, err := a.NewComponent("Consumer", func(ctx *core.Ctx) {
		for {
			if _, ok := ctx.Receive("in"); !ok {
				return
			}
			w.received.Add(1)
		}
	})
	if err != nil {
		return nil, err
	}
	src.Place(0)
	dst.Place(0)
	if err := src.AddRequired("out"); err != nil {
		return nil, err
	}
	if err := dst.AddProvided("in", 64); err != nil {
		return nil, err
	}
	if err := a.Connect(src, "out", dst, "in"); err != nil {
		return nil, err
	}
	return w, nil
}

func (w *failWorkload) Units() int       { return int(w.received.Load()) }
func (w *failWorkload) Checksum() uint64 { return 0 }
func (w *failWorkload) Summary() string  { return fmt.Sprintf("received %d/%d", w.Units(), w.want) }
func (w *failWorkload) Check() error {
	if w.Units() != w.want {
		return fmt.Errorf("received %d payloads, want %d", w.Units(), w.want)
	}
	return nil
}

// TestDataPathFailuresAreNamed: a payload that cannot cross the wire fails
// the run with an error naming the worker, the edge and the payload type,
// whether the sending worker cannot encode it or the receiving worker
// cannot decode it. The failed run leaves no worker process and no
// goroutine behind.
func TestDataPathFailuresAreNamed(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	cases := []struct {
		workload, typ, side, owner string
	}{
		{"wirefail-nocodec", "cluster_test.noCodec", "sending on edge 0 Source.out -> Consumer.in", "Source"},
		{"wirefail-picky", "cluster_test.picky", "receiving on edge 0 Source.out -> Consumer.in", "Consumer"},
	}
	for _, tc := range cases {
		t.Run(tc.workload, func(t *testing.T) {
			base := runtime.NumGoroutine()
			m, a := cluster.New(tc.workload, 2, 2)
			const payloads = 100
			inst, err := platform.MustGetWorkload(tc.workload).Build(a, platform.MustGet("cluster"), platform.Options{Scale: payloads})
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Distribute(tc.workload, payloads, 0, nil, inst); err != nil {
				t.Fatal(err)
			}
			if m.ShardOf("Source") == m.ShardOf("Consumer") {
				t.Fatal("placement moved Source and Consumer onto one shard")
			}
			if err := a.Start(); err != nil {
				t.Fatal(err)
			}
			runDone := make(chan error, 1)
			go func() { runDone <- m.Run(60e6) }()
			var runErr error
			select {
			case runErr = <-runDone:
			case <-time.After(90 * time.Second):
				t.Fatal("cluster run hung after a data-path failure")
			}
			if runErr == nil {
				t.Fatalf("run succeeded with %s", inst.Summary())
			}
			msg := runErr.Error()
			for _, want := range []string{
				fmt.Sprintf("cluster: worker %d failed: ", m.ShardOf(tc.owner)), tc.side, tc.typ,
			} {
				if !strings.Contains(msg, want) {
					t.Errorf("error does not say %q: %v", want, runErr)
				}
			}
			for _, pid := range m.WorkerPIDs() {
				if err := syscall.Kill(pid, 0); err == nil {
					t.Errorf("worker process %d survives the failed run", pid)
				}
			}
			deadline := time.Now().Add(10 * time.Second)
			for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
				time.Sleep(10 * time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > base {
				t.Errorf("%d goroutines after the failed run, %d before", n, base)
			}
		})
	}
}

func TestShardOfDeterministicAndBounded(t *testing.T) {
	names := []string{"Source", "Sink", "S1W1", "S1W2", "c0", "c17", ""}
	for _, shards := range []int{1, 2, 3, 7} {
		for _, n := range names {
			s := cluster.ShardOf(n, shards)
			if s < 0 || s >= shards {
				t.Fatalf("ShardOf(%q, %d) = %d out of range", n, shards, s)
			}
			if again := cluster.ShardOf(n, shards); again != s {
				t.Fatalf("ShardOf(%q, %d) unstable: %d then %d", n, shards, s, again)
			}
		}
	}
	if s := cluster.ShardOf("anything", 0); s != 0 {
		t.Errorf("ShardOf with 0 shards = %d, want 0", s)
	}
	// At least two of the pipeline names must land on different shards with
	// 2 shards — otherwise the multi-process battery degenerates.
	spread := map[int]bool{}
	for _, n := range names {
		spread[cluster.ShardOf(n, 2)] = true
	}
	if len(spread) < 2 {
		t.Errorf("placement sent every name to one shard: %v", spread)
	}
}

// TestLocalFallbackRunsInProcess: without Distribute the machine is a
// cluster of one — a transparent native run, no processes, no sockets.
func TestLocalFallbackRunsInProcess(t *testing.T) {
	m, a := cluster.New("fallback", 2, 4)
	cfg := pipelineapp.DefaultConfig()
	cfg.Messages = 50
	app, err := pipelineapp.Build(a, cfg, platform.MustGet("cluster").Topology())
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(60e6); err != nil {
		t.Fatal(err)
	}
	if pids := m.WorkerPIDs(); len(pids) != 0 {
		t.Errorf("local fallback spawned workers: %v", pids)
	}
	if err := app.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestTwoWorkerPipelineEndToEnd is the acceptance run: a 2-worker sharded
// pipeline over real sockets through the full exp harness, with monitor
// windows aggregated centrally — the checksum must match the closed-form
// model and every worker-side sample must land in exactly one ingested
// window (exact samples == windowed across processes).
func TestTwoWorkerPipelineEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	p := platform.MustGet("cluster")
	w := platform.MustGetWorkload("pipeline")
	const messages = 5000
	run, err := exp.Run(p, w, exp.Options{
		Options: platform.Options{Scale: messages},
		Monitor: &monitor.Config{
			Levels:   []monitor.LevelPeriod{{Level: core.LevelApplication, PeriodUS: 200}},
			WindowUS: 2000,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := pipelineapp.DefaultConfig()
	cfg.Messages = messages
	if got, want := run.Instance.Checksum(), pipelineapp.Expected(cfg); got != want {
		t.Errorf("sharded checksum %016x, want %016x", got, want)
	}
	if got := run.Instance.Units(); got != messages {
		t.Errorf("sharded units %d, want %d", got, messages)
	}
	if lf, ok := run.Machine.(interface{ LostFrames() uint64 }); !ok {
		t.Error("cluster machine does not expose LostFrames")
	} else if n := lf.LostFrames(); n != 0 {
		t.Errorf("clean run lost %d frames", n)
	}
	// Central aggregation: the coordinator's monitor holds every worker
	// window, and its accepted-sample counter equals the windowed sum.
	var windowed int
	for _, win := range run.Monitor.Windows() {
		windowed += win.Samples
	}
	if accepted := run.Monitor.Samples(); uint64(windowed) != accepted {
		t.Errorf("monitor: %d samples accepted but %d aggregated into windows", accepted, windowed)
	}
	if run.Monitor.Samples() == 0 {
		t.Error("no samples crossed the process boundary")
	}
	// Every windowed component is a real component of the assembly.
	for _, tot := range run.Monitor.Totals() {
		if _, ok := run.Reports[tot.Component]; !ok {
			t.Errorf("window for unknown component %q", tot.Component)
		}
	}
}

// TestRelayQueuesReportDepthAndHighWater runs the MJPEG decoder on two
// workers: every shard that receives a cross-shard edge must report a
// relay high-water of at least one frame, and every relay queue must be
// drained once the run is over.
func TestRelayQueuesReportDepthAndHighWater(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	run, err := exp.Run(platform.MustGet("cluster"), platform.MustGetWorkload("mjpeg"),
		exp.Options{Options: platform.Options{Scale: 12}})
	if err != nil {
		t.Fatal(err)
	}
	m, ok := run.Machine.(interface {
		ShardOf(name string) int
		RelayQueues() []cluster.RelayQueue
	})
	if !ok {
		t.Fatal("cluster machine does not expose RelayQueues")
	}
	receives := map[int]bool{}
	for _, c := range run.App.Components() {
		for _, cn := range c.Connections() {
			if from, to := m.ShardOf(c.Name()), m.ShardOf(cn.To); from != to {
				receives[to] = true
			}
		}
	}
	if len(receives) == 0 {
		t.Fatal("no MJPEG edge crosses shards")
	}
	qs := m.RelayQueues()
	if len(qs) < 2 {
		t.Fatalf("%d relay queues, want one per worker shard", len(qs))
	}
	for _, q := range qs {
		if q.Depth != (cluster.QueueDepth{}) {
			t.Errorf("shard %d relay queue still holds %+v after the run", q.Shard, q.Depth)
		}
		if receives[q.Shard] && (q.Peak.Frames < 1 || q.Peak.Bytes < q.Peak.Frames) {
			t.Errorf("shard %d receives cross-shard edges but its relay high-water is %+v", q.Shard, q.Peak)
		}
		t.Logf("shard %d relay queue: depth %+v, high-water %+v", q.Shard, q.Depth, q.Peak)
	}
}

// TestWorkerKillMidRunFailsCleanly kills the worker owning the pipeline
// Source mid-run: Run must return promptly with an error naming the worker
// (counting any in-flight losses), not hang and not double-close anything.
func TestWorkerKillMidRunFailsCleanly(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	m, a := cluster.New("killtest", 2, 4)
	p := platform.MustGet("cluster")
	w := platform.MustGetWorkload("pipeline")
	const messages = 2_000_000 // far more than can drain before the kill
	inst, err := w.Build(a, p, platform.Options{Scale: messages})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Distribute("pipeline", messages, 0, nil, inst); err != nil {
		t.Fatal(err)
	}
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	runDone := make(chan error, 1)
	go func() { runDone <- m.Run(120e6) }()

	// Wait for both workers, let the pipeline flow, then kill the shard
	// that owns the Source so production stops with messages in flight.
	var pids []int
	deadline := time.Now().Add(30 * time.Second)
	for len(pids) < 2 && time.Now().Before(deadline) {
		pids = m.WorkerPIDs()
		time.Sleep(10 * time.Millisecond)
	}
	if len(pids) < 2 {
		t.Fatal("workers never launched")
	}
	time.Sleep(300 * time.Millisecond)
	victim := m.ShardOf("Source")
	if err := syscall.Kill(pids[victim], syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}

	select {
	case err := <-runDone:
		if err == nil {
			t.Fatal("worker killed mid-run but Run returned nil")
		}
		if !strings.Contains(err.Error(), "worker") {
			t.Errorf("failure does not name the worker: %v", err)
		}
		if n := m.LostFrames(); n > 0 && !strings.Contains(err.Error(), "in-flight") {
			t.Errorf("%d frames lost but the error does not count them: %v", n, err)
		}
	case <-time.After(90 * time.Second):
		t.Fatal("cluster run hung after worker death")
	}
	if !a.Done() {
		t.Error("application never quiesced after worker death")
	}
}

// TestWorkerDeathDuringInFlightReconnect covers the reconfiguration edge the
// feedback controller leans on: a coordinator-side Reconnect attempted while
// the fleet is flowing must fail fast with the external-component rejection
// (cross-shard edges are rewired in their owning process, never through the
// coordinator's skeleton), and when a worker dies under that in-flight
// attempt the synthetic EdgeClose drain must still conserve flows — the
// survivors consume everything that was actually delivered, nothing is
// duplicated, and losses are exactly the in-flight frames.
func TestWorkerDeathDuringInFlightReconnect(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	m, a := cluster.New("reconnkill", 2, 4)
	p := platform.MustGet("cluster")
	w := platform.MustGetWorkload("pipeline")
	const messages = 300_000
	inst, err := w.Build(a, p, platform.Options{Scale: messages})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Distribute("pipeline", messages, 0, nil, inst); err != nil {
		t.Fatal(err)
	}
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}

	// The victim shard must own neither the Source nor the Sink, so
	// production and consumption survive the kill and the drain has flows
	// left to conserve. With FNV placement over 2 shards that is the shard
	// owning S1W1; guard the assumption so a placement change fails loudly.
	victim := m.ShardOf("S1W1")
	if m.ShardOf("Source") == victim || m.ShardOf("Sink") == victim {
		t.Fatalf("placement moved: Source=%d Sink=%d S1W1=%d",
			m.ShardOf("Source"), m.ShardOf("Sink"), m.ShardOf("S1W1"))
	}

	runDone := make(chan error, 1)
	go func() { runDone <- m.Run(120e6) }()

	var pids []int
	deadline := time.Now().Add(30 * time.Second)
	for len(pids) < 2 && time.Now().Before(deadline) {
		pids = m.WorkerPIDs()
		time.Sleep(10 * time.Millisecond)
	}
	if len(pids) < 2 {
		t.Fatal("workers never launched")
	}
	time.Sleep(250 * time.Millisecond)

	// The in-flight reconnect: Source.out0 -> S1W1.in crosses shards, and on
	// the coordinator both endpoints are external. Issue it concurrently
	// with the kill — it must return promptly with the rejection, never
	// touch the wire star, and never install anything.
	src, _ := a.Component("Source")
	dst, _ := a.Component("S1W1")
	recErr := make(chan error, 1)
	go func() { recErr <- a.Reconnect(src, "out0", dst, "in") }()

	if err := syscall.Kill(pids[victim], syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}

	select {
	case err := <-recErr:
		if err == nil {
			t.Fatal("coordinator-side reconnect of a cross-shard edge succeeded")
		}
		if !strings.Contains(err.Error(), "external component") {
			t.Errorf("reconnect rejection does not name the external component rule: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("reconnect hung instead of failing fast")
	}

	var runErr error
	select {
	case runErr = <-runDone:
	case <-time.After(110 * time.Second):
		t.Fatal("cluster run hung after worker death during reconnect")
	}
	if runErr == nil {
		t.Fatal("worker killed mid-run but Run returned nil")
	}
	if !strings.Contains(runErr.Error(), "worker") {
		t.Errorf("failure does not name the worker: %v", runErr)
	}
	if !a.Done() {
		t.Error("application never quiesced after worker death")
	}

	// Flow conservation across the synthetic EdgeClose drain: the surviving
	// Sink consumed everything delivered to it, and every message is
	// accounted at most once — consumed or counted lost, never both, never
	// duplicated by the drain.
	units := inst.Units()
	lost := m.LostFrames()
	if units <= 0 {
		t.Error("surviving shard merged no units; the drain did not conserve delivered flows")
	}
	if uint64(units)+lost > messages {
		t.Errorf("conservation broken: %d consumed + %d lost > %d produced", units, lost, messages)
	}
	if lost == 0 {
		t.Error("no in-flight frames lost; the kill did not land mid-flow")
	}
	// No cross-shard edge relayed more frames than the model allows: each
	// producer alternates its outputs, so no edge can carry more than the
	// full message count.
	for _, e := range [][2]string{{"Source", "out0"}, {"S1W1", "out0"}, {"S1W2", "out1"}, {"S2W2", "out0"}} {
		if frames, remote := m.WireFrames(e[0], e[1]); remote && frames > messages {
			t.Errorf("edge %s.%s relayed %d frames for %d messages", e[0], e[1], frames, messages)
		}
	}
}

// TestServedClusterParksAndRestarts: a served cluster assembly must park on
// Stop (terminate broadcast drains the fleet) and a later Start must launch
// a fresh generation — new worker processes — that completes and passes the
// workload self-check.
func TestServedClusterParksAndRestarts(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	p := platform.MustGet("cluster")
	w := platform.MustGetWorkload("pipeline")
	sr, err := exp.RunServed(p, w, exp.ServedOptions{
		Options: exp.Options{Options: platform.Options{Scale: 800}},
		Pace:    10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()

	waitForCluster(t, "first generation to complete", func() bool {
		return sr.Stats().CompletedChecks >= 1
	})

	sr.Stop()
	waitForCluster(t, "assembly to park", func() bool {
		s := sr.Stats()
		return s.Stopped && !s.Running
	})
	parkedChecks := sr.Stats().CompletedChecks

	sr.Start()
	waitForCluster(t, "a fresh generation after restart", func() bool {
		return sr.Stats().CompletedChecks > parkedChecks
	})
	if s := sr.Stats(); s.LastErr != "" {
		t.Errorf("restarted assembly reports an error: %s", s.LastErr)
	}
}

func waitForCluster(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}
