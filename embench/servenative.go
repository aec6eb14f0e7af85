package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"embera/internal/burstwl"
	"embera/internal/core"
	"embera/internal/ctl"
	"embera/internal/exp"
	"embera/internal/monitor"
	"embera/internal/platform"
	"embera/internal/serve"
	"embera/internal/trace"
)

const assemblyID = "bench"

// servePolicies is the feedback policy set installed on the served
// assembly: it matches every window of the collector, fires after three in
// a row and then sleeps five, so the controller evaluates every window and
// exercises its hysteresis. The action re-applies the configured sampling
// period, which changes nothing.
var servePolicies = []ctl.Policy{{
	Name: "embench-hold", Component: "col",
	Metric: ctl.MetricDepthHigh, Op: ">=", Threshold: 0,
	HoldWindows: 3, CooldownWindows: 5,
	Action: ctl.Action{Type: ctl.ActSetPeriod, Level: "application", PeriodUS: samplePeriodUS},
}}

// serveControl is the control client's idempotent request: re-apply the
// configured OS sampling period.
const serveControl = `{"action":"set-period","level":"os","period_us":5000}`

// controlEvery is the control client's open-loop request interval.
const controlEvery = 10 * time.Millisecond

// genPlan is the per-generation schedule of the measured interval:
// sampling on, off, off, on — so sampling-on/off pairs alternate their
// order — and, in a traced invocation, four traced generations then four
// untraced ones.
func genPlan(k int, traceMode bool) (sampled, traced bool) {
	pos := k % 4
	return pos == 0 || pos == 3, traceMode && (k/4)%2 == 0
}

// genRecord is one served generation as the benchmark's hooks saw it.
type genRecord struct {
	gen     int
	timed   int  // index in the measured interval, -1 before it
	sampled bool // sampling on at start
	mixed   bool // sampling state changed during the generation
	traced  bool
	start   int64 // OnMonitor hook, ns since clockBase
	custom  int64 // Customize hook
	quiet   int64 // quiescence seen by the benchmark's own flow
	msgs    uint64
	bytes   uint64
}

// genTracker implements the OnMonitor and Customize hooks of every served
// generation. At each generation's quiescence it applies the next planned
// sampling state through the served run's pause/resume control, so the
// state is in place before the next generation starts.
type genTracker struct {
	traceMode bool
	rec       *trace.Recorder
	run       func() *exp.ServedRun

	mu         sync.Mutex
	n          int
	timing     bool
	nextTimed  int
	nextTraced bool
	cur        genRecord
	curMon     *monitor.Monitor
	done       []genRecord
}

func (g *genTracker) onMonitor(mon *monitor.Monitor) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.n++
	g.cur = genRecord{gen: g.n, timed: -1, sampled: !mon.Paused(), start: nowNS()}
	if g.timing {
		g.cur.timed = g.nextTimed - 1
		g.cur.traced = g.nextTraced
	}
	g.curMon = mon
	if g.rec != nil {
		g.rec.SetEnabled(g.cur.traced)
	}
}

func (g *genTracker) customize(a *core.App, obs *core.Observer) {
	g.mu.Lock()
	g.cur.custom = nowNS()
	traced, mon := g.cur.traced, g.curMon
	g.mu.Unlock()
	a.SpawnDriver("embench/quiescence", func(f core.Flow) {
		a.AwaitQuiescence(f)
		quiet := nowNS()
		var msgs, byts uint64
		if traced {
			if reps, err := obs.QueryAll(f, core.LevelAll); err == nil {
				msgs, byts = sends(reps)
			}
		}
		g.mu.Lock()
		defer g.mu.Unlock()
		rec := g.cur
		rec.quiet, rec.msgs, rec.bytes = quiet, msgs, byts
		rec.mixed = mon.Paused() == rec.sampled
		g.done = append(g.done, rec)
		// A generation that started before the measured interval leaves the
		// first measured generation to the state startTiming applied.
		if rec.timed < 0 {
			return
		}
		sampled, tr := genPlan(g.nextTimed, g.traceMode)
		g.nextTimed++
		g.nextTraced = tr
		if run := g.run(); run != nil {
			if sampled {
				run.Resume()
			} else {
				run.Pause()
			}
		}
	})
}

// startTiming makes the next generation the first measured one.
func (g *genTracker) startTiming() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.timing = true
	sampled, tr := genPlan(0, g.traceMode)
	g.nextTimed, g.nextTraced = 1, tr
	if run := g.run(); run != nil {
		if sampled {
			run.Resume()
		} else {
			run.Pause()
		}
	}
}

func (g *genTracker) records() []genRecord {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]genRecord(nil), g.done...)
}

// keptEvents bounds how many delivered window events the SSE client keeps
// for the broker and controller replays.
const keptEvents = 4096

// windowTap is a monitor sink listed ahead of the assembly's own sink: it
// stamps every closed window just before the assembly publishes it, and
// the SSE client reports each window's arrival through deliver, matching
// it to its stamp by the per-assembly sequence number.
type windowTap struct {
	mu        sync.Mutex
	stamps    []int64 // stamp of window seq at index seq-1, ns since clockBase
	timedFrom uint64  // only windows with timedFrom < seq <= timedTo are timed
	timedTo   uint64
	lat       map[uint64][]float64 // delivery latencies in ms, by generation
	events    []serve.Event
}

func newWindowTap() *windowTap {
	return &windowTap{timedTo: ^uint64(0), lat: map[uint64][]float64{}}
}

// WriteWindow implements monitor.Sink.
func (t *windowTap) WriteWindow(monitor.WindowStats) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.stamps = append(t.stamps, nowNS())
	return nil
}

// deliver records that the window with ev.Seq reached the subscriber at at.
func (t *windowTap) deliver(ev serve.Event, at time.Time) {
	now := at.Sub(clockBase).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	if ev.Seq > t.timedFrom && ev.Seq <= t.timedTo && ev.Seq <= uint64(len(t.stamps)) {
		t.lat[ev.Generation] = append(t.lat[ev.Generation], float64(now-t.stamps[ev.Seq-1])/1e6)
	}
	if len(t.events) < keptEvents {
		t.events = append(t.events, ev)
	}
}

// served is one running serve stack: the server with its assembly, the
// loopback HTTP listener, and the two clients.
type served struct {
	srv     *serve.Server
	as      *serve.Assembly
	hs      *http.Server
	url     string
	tap     *windowTap
	tracker *genTracker
	sse     *sseClient
	client  *http.Client
	serveWG sync.WaitGroup
}

// startServed brings the serve stack up: server, assembly, listener,
// policies, and an SSE subscriber that has received its first window.
func startServed(b *bench, p platform.Platform, w platform.Workload, reqs int, rec *trace.Recorder) (*served, error) {
	s := &served{srv: serve.NewServer(serve.Config{}), tap: newWindowTap()}
	s.tracker = &genTracker{traceMode: b.cfg.trace, rec: rec}
	opts := exp.ServedOptions{Options: exp.Options{
		Options: platform.Options{Scale: reqs},
		Monitor: &monitor.Config{
			Levels: []monitor.LevelPeriod{
				{Level: core.LevelApplication, PeriodUS: samplePeriodUS},
				{Level: core.LevelOS, PeriodUS: 5000},
			},
			WindowUS: windowUS,
			// Listed ahead of the assembly's own sink, so each window is
			// stamped just before the assembly publishes it.
			Sinks: []monitor.Sink{s.tap},
		},
		OnMonitor: s.tracker.onMonitor,
		Customize: s.tracker.customize,
	}}
	if rec != nil {
		opts.EventSink = rec
	}
	as, err := s.srv.AddAssembly(assemblyID, p, w, opts)
	if err != nil {
		return nil, err
	}
	s.as = as
	s.tracker.run = func() *exp.ServedRun { return as.Run() }
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.srv.Close()
		return nil, err
	}
	s.url = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: s.srv.Handler()}
	s.serveWG.Add(1)
	go func() {
		defer s.serveWG.Done()
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	s.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	body, _ := json.Marshal(servePolicies)
	if err := s.post("/v1/assemblies/"+assemblyID+"/policies", body); err != nil {
		s.close()
		return nil, fmt.Errorf("installing policies: %w", err)
	}
	if s.sse, err = startSSE(s.url+"/v1/assemblies/"+assemblyID+"/windows", s.tap); err != nil {
		s.close()
		return nil, err
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.sse.count() == 0 {
		if time.Now().After(deadline) {
			s.close()
			return nil, fmt.Errorf("no window reached the SSE subscriber")
		}
		time.Sleep(time.Millisecond)
	}
	return s, nil
}

// post sends one POST and requires a 200.
func (s *served) post(path string, body []byte) error {
	resp, err := s.client.Post(s.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	return drain(resp)
}

// drain reads and closes a response body (keeping the connection alive)
// and turns a non-200 status into an error.
func drain(resp *http.Response) error {
	_, err := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("HTTP %s", resp.Status)
	}
	return err
}

// close tears the stack down: assemblies, subscriber, HTTP server, idle
// client connections.
func (s *served) close() error {
	s.srv.Close()
	var errs []error
	if s.sse != nil {
		if err := s.sse.close(); err != nil {
			errs = append(errs, err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := s.hs.Shutdown(ctx); err != nil {
		_ = s.hs.Close() // forced close after a drain that did not finish
	}
	s.serveWG.Wait()
	s.client.CloseIdleConnections()
	return errors.Join(errs...)
}

// sseClient is the dashboard: one SSE subscription over loopback HTTP
// that parses every window event and reports its delivery to the tap.
type sseClient struct {
	cancel context.CancelFunc
	done   chan struct{}
	tr     *http.Transport

	mu      sync.Mutex
	n       int
	lastSeq uint64
	subDrop uint64
	err     error
}

// sseEvent is the SSE data payload the serve layer emits.
type sseEvent struct {
	serve.Event
	SubscriberDropped uint64 `json:"subscriber_dropped"`
}

func startSSE(url string, tap *windowTap) (*sseClient, error) {
	ctx, cancel := context.WithCancel(context.Background())
	c := &sseClient{cancel: cancel, done: make(chan struct{}), tr: &http.Transport{}}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		cancel()
		return nil, err
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := (&http.Client{Transport: c.tr}).Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("SSE subscribe: HTTP %s", resp.Status)
	}
	go func() {
		defer close(c.done)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := sc.Text()
			data, ok := strings.CutPrefix(line, "data: ")
			if !ok {
				continue
			}
			var ev sseEvent
			if err := json.Unmarshal([]byte(data), &ev); err != nil {
				if ctx.Err() != nil {
					return // a line cut short by close
				}
				c.mu.Lock()
				c.err = fmt.Errorf("SSE: %w", err)
				c.mu.Unlock()
				return
			}
			tap.deliver(ev.Event, time.Now())
			c.mu.Lock()
			c.n++
			c.lastSeq = ev.Seq
			c.subDrop = ev.SubscriberDropped
			c.mu.Unlock()
		}
	}()
	return c, nil
}

func (c *sseClient) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

func (c *sseClient) state() (lastSeq, dropped uint64, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastSeq, c.subDrop, c.err
}

func (c *sseClient) close() error {
	c.cancel()
	<-c.done
	c.tr.CloseIdleConnections()
	_, _, err := c.state()
	return err
}

// controlLoad is the keep-alive control client: every controlEvery it
// sends the next request of an alternating GET /metrics and POST /control
// sequence, on an open-loop schedule, until stop closes. Each round trip is
// timed from when the request was due, so a stalled request also delays
// the ones queued behind it.
type controlLoad struct {
	metricsMS, controlMS []float64
	calls, failed        int
	lastErr              error
}

func (s *served) controlClient(stop <-chan struct{}) *controlLoad {
	cl := &controlLoad{}
	due := time.Now()
	for i := 0; ; i++ {
		select {
		case <-stop:
			return cl
		case <-time.After(time.Until(due)):
		}
		var err error
		if i%2 == 0 {
			var resp *http.Response
			if resp, err = s.client.Get(s.url + "/metrics"); err == nil {
				err = drain(resp)
			}
			cl.metricsMS = append(cl.metricsMS, time.Since(due).Seconds()*1e3)
		} else {
			err = s.post("/v1/assemblies/"+assemblyID+"/control", []byte(serveControl))
			cl.controlMS = append(cl.controlMS, time.Since(due).Seconds()*1e3)
		}
		cl.calls++
		if err != nil {
			cl.failed++
			cl.lastErr = err
		}
		due = due.Add(controlEvery)
	}
}

// genPoll is one generation as seen by polling ServedRun.Stats.
type genPoll struct {
	gen          uint64
	start, end   time.Time
	units, check uint64
}

func runServeNative(b *bench) error {
	reqs, setups := 1200, 3
	if b.cfg.tiny {
		reqs, setups = 40, 1
	}
	arg := burstArg(b.cfg.seed)
	p, err := platform.Get("native")
	if err != nil {
		return err
	}
	w, err := platform.GetWorkload(burstwl.Family + ":" + arg)
	if err != nil {
		return err
	}
	spec, err := burstwl.ParseSpec(arg)
	if err != nil {
		return err
	}
	spec.Reqs = reqs
	wantUnits, _ := spec.Expected()
	runtime.GC()
	goroutines := runtime.NumGoroutine()

	var rec *trace.Recorder
	if b.cfg.trace {
		rec = trace.NewRecorder(1 << 16)
	}
	// Set-up, repeated so its median is steady; every stack but the last is
	// torn down again.
	var setupTimes []float64
	var s *served
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		if s, err = startServed(b, p, w, reqs, rec); err != nil {
			return err
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		if i < setups-1 {
			if err := s.close(); err != nil {
				return err
			}
		}
	}
	b.set("setup_s", median(setupTimes))

	// The measured interval: the generation loop runs on its own while this
	// goroutine polls Stats, the SSE client parses windows and the control
	// client sends its requests.
	beginRSSRound()
	run := s.as.Run()
	st0 := run.Stats()
	ctl0Fired, ctl0Supp, ctl0Err := s.as.Ctl().Counters()
	s.tracker.startTiming()
	s.tap.mu.Lock()
	s.tap.timedFrom = uint64(len(s.tap.stamps))
	s.tap.lat = map[uint64][]float64{}
	s.tap.mu.Unlock()
	stop := make(chan struct{})
	loadDone := make(chan *controlLoad)
	go func() { loadDone <- s.controlClient(stop) }()

	t0 := time.Now()
	deadline := b.deadline()
	var polls []genPoll
	var cur *genPoll
	prev := st0
	minTimed := 8
	if b.cfg.trace {
		minTimed = 16
	}
	for {
		done := timedDone(s.tracker.records())
		if (!time.Now().Before(deadline) && done >= minTimed) || time.Since(t0) > 150*time.Second {
			break
		}
		time.Sleep(time.Millisecond)
		st := run.Stats()
		now := time.Now()
		if st.Running && (cur == nil || st.Generations != cur.gen) {
			cur = &genPoll{gen: st.Generations, start: now}
		}
		if !st.Running && cur != nil {
			cur.end = now
			cur.units = st.Units - prev.Units
			cur.check = st.CompletedChecks - prev.CompletedChecks
			polls = append(polls, *cur)
			cur = nil
		}
		if !st.Running {
			prev = st
		}
		if st.LastErr != "" {
			b.op(fmt.Errorf("served generation failed: %s", st.LastErr))
			break
		}
	}
	b.set("peak_rss_mb", endRSSRound())
	close(stop)
	load := <-loadDone
	s.tap.mu.Lock()
	s.tap.timedTo = uint64(len(s.tap.stamps))
	timedWindows := s.tap.timedTo - s.tap.timedFrom
	s.tap.mu.Unlock()

	// Let the subscriber catch up with every window of the interval.
	catchUp := time.Now().Add(3 * time.Second)
	for time.Now().Before(catchUp) {
		if last, _, _ := s.sse.state(); last >= s.tap.timedTo {
			break
		}
		time.Sleep(time.Millisecond)
	}
	stEnd := run.Stats()
	fired, suppressed, execErrs := s.as.Ctl().Counters()
	firingsDropped := s.as.FiringsDropped()
	_, subDropped, _ := s.sse.state()
	published, brDropped := s.srv.Broker().Published(), s.srv.Broker().Dropped()
	s.tap.mu.Lock()
	latByGen := s.tap.lat
	events := append([]serve.Event(nil), s.tap.events...)
	s.tap.mu.Unlock()
	timedLat := 0
	for _, g := range latByGen {
		timedLat += len(g)
	}
	recs := s.tracker.records()
	b.op(s.close())
	b.op(checkGoroutines(goroutines))

	// Accounting: every timed window delivery, control call and completed
	// generation is one operation.
	missing := int(timedWindows) - timedLat
	b.ops(int(timedWindows), missing,
		fmt.Errorf("%d of %d windows never reached the SSE subscriber", missing, timedWindows))
	b.ops(load.calls, load.failed,
		fmt.Errorf("%d of %d control calls failed: %v", load.failed, load.calls, load.lastErr))
	byGen := map[int]genRecord{}
	for _, r := range recs {
		byGen[r.gen] = r
	}
	var genS, ups []float64
	for _, pg := range polls {
		r, ok := byGen[int(pg.gen)]
		if !ok || r.timed < 0 {
			continue
		}
		var err error
		if pg.units != uint64(wantUnits) || pg.check != 1 {
			err = fmt.Errorf("generation %d folded %d units with %d passed checks, want %d and 1", pg.gen, pg.units, pg.check, wantUnits)
		}
		b.op(err)
		if r.sampled && !r.mixed && (!b.cfg.trace || r.traced) {
			d := pg.end.Sub(pg.start).Seconds()
			genS = append(genS, d)
			ups = append(ups, float64(wantUnits)/d)
		}
	}
	for _, n := range []struct {
		what string
		v    uint64
	}{
		{"ring drops", stEnd.RingDropped - st0.RingDropped},
		{"sink errors", stEnd.SinkErrors - st0.SinkErrors},
		{"broker drops", brDropped},
		{"subscriber drops", subDropped},
		{"policy action errors", execErrs - ctl0Err},
		{"dropped firings", firingsDropped},
	} {
		if n.v != 0 {
			b.op(fmt.Errorf("%d %s", n.v, n.what))
		}
	}

	// Sampling-on ÷ sampling-off pairs of consecutive measured generations.
	var slow, runOn, runOff, runOnUntraced, msgs, byts []float64
	timed := map[int]genRecord{}
	for _, r := range recs {
		if r.timed >= 0 {
			timed[r.timed] = r
		}
	}
	runS := func(r genRecord) float64 { return float64(r.quiet-r.custom) / 1e9 }
	for k := 0; ; k += 2 {
		a, okA := timed[k]
		c, okC := timed[k+1]
		if !okA || !okC {
			break
		}
		if a.mixed || c.mixed || a.sampled == c.sampled || a.traced != c.traced {
			continue
		}
		on, off := a, c
		if !a.sampled {
			on, off = c, a
		}
		if b.cfg.trace && !on.traced {
			runOnUntraced = append(runOnUntraced, runS(on))
			continue
		}
		slow = append(slow, runS(on)/runS(off))
		runOn, runOff = append(runOn, runS(on)), append(runOff, runS(off))
		if on.traced {
			msgs, byts = append(msgs, float64(on.msgs)), append(byts, float64(on.bytes))
		}
	}
	if len(slow) == 0 || len(ups) == 0 {
		return fmt.Errorf("no complete generation pair in the measured interval")
	}
	b.set("units_per_s", median(ups))
	b.set("monitor_slowdown", median(slow))
	if !b.cfg.trace {
		return nil
	}

	// Window delivery latency, from the untraced generations only: the
	// median of each generation's median, and the 99th percentile over
	// every window.
	var p50s, all []float64
	for gen, g := range latByGen {
		if r, ok := byGen[int(gen)]; ok && !r.traced && len(g) > 0 {
			p50s = append(p50s, median(g))
			all = append(all, g...)
		}
	}
	b.set("serve.window_latency_p50_ms", median(p50s))
	b.set("serve.window_latency_p99_ms", quantile(all, 0.99))

	sampledGens := float64(len(runOn) + len(runOnUntraced))
	samples := float64(stEnd.Samples-st0.Samples) / sampledGens
	b.set("exp.run_s", median(runOn))
	b.set("exp.bare_run_s", median(runOff))
	b.set("exp.generation_s", median(genS))
	b.set("core.msgs", median(msgs))
	b.set("core.bytes", median(byts))
	b.set("native.ns_per_msg", median(genS)*1e9/median(msgs))
	b.set("monitor.samples", samples)
	b.set("monitor.windows", float64(timedWindows)/sampledGens)
	b.set("monitor.ring_dropped", float64(stEnd.RingDropped-st0.RingDropped))
	b.set("monitor.sink_errors", float64(stEnd.SinkErrors-st0.SinkErrors))
	b.set("monitor.ns_per_sample", (median(runOn)-median(runOff))*1e9/samples)
	total, _ := rec.Stats()
	b.set("trace.events", float64(total)/float64(len(runOn)*2))
	b.set("trace.overhead_pct", 100*(median(runOn)/median(runOnUntraced)-1))
	b.set("serve.published", float64(published))
	b.set("serve.dropped", float64(brDropped))
	b.set("serve.windows_timed", float64(timedLat))
	b.set("serve.metrics_ms", median(load.metricsMS))
	b.set("serve.control_ms", median(load.controlMS))
	b.set("ctl.fired", float64(fired-ctl0Fired))
	b.set("ctl.suppressed", float64(suppressed-ctl0Supp))
	b.set("ctl.firings_dropped", float64(firingsDropped))

	// Replays of the run's own windows through the broker and through a
	// controller holding the installed policies.
	runID := b.spans.newRun()
	t1 := time.Now()
	b.set("serve.publish_ns", publishReplay(events, 100_000))
	b.spans.add("replay.serve.publish", 0, runID, t1, time.Now())
	t1 = time.Now()
	obsNS, err := observeReplay(events, 100_000)
	if err != nil {
		return err
	}
	b.set("ctl.observe_ns", obsNS)
	b.spans.add("replay.ctl.observe", 0, runID, t1, time.Now())
	for _, r := range recs {
		if r.timed >= 0 && r.traced {
			runID := b.spans.newRun()
			id := b.spans.add("serve.generation", 0, runID, at(r.start), at(r.quiet))
			b.spans.add("exp.run", id, runID, at(r.custom), at(r.quiet))
		}
	}
	return nil
}

// timedDone counts measured generations that have finished.
func timedDone(recs []genRecord) int {
	n := 0
	for _, r := range recs {
		if r.timed >= 0 {
			n++
		}
	}
	return n
}

// publishReplay times serve.Broker.Publish of events to one subscriber
// that a second goroutine drains, in ns per publish.
func publishReplay(events []serve.Event, publishes int) float64 {
	if len(events) == 0 {
		return 0
	}
	br := serve.NewBroker(0)
	sub := br.Subscribe("")
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-sub.C():
			case <-stop:
				return
			}
		}
	}()
	t0 := time.Now()
	for i := 0; i < publishes; i++ {
		br.Publish(events[i%len(events)])
	}
	el := time.Since(t0)
	close(stop)
	<-done
	br.Unsubscribe(sub)
	return float64(el.Nanoseconds()) / float64(publishes)
}

// observeReplay feeds the run's own window records through a controller
// holding the installed policies, in ns per Observe.
func observeReplay(events []serve.Event, calls int) (float64, error) {
	if len(events) == 0 {
		return 0, nil
	}
	c := ctl.NewController()
	if err := c.SetPolicies(servePolicies); err != nil {
		return 0, err
	}
	t0 := time.Now()
	for i := 0; i < calls; i++ {
		c.Observe(events[i%len(events)].Window)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(calls), nil
}
