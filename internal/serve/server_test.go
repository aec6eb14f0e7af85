package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"embera/internal/core"
	"embera/internal/ctl"
	"embera/internal/exp"
	"embera/internal/monitor"
	"embera/internal/platform"
)

func waitForCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// smallSndbufListener pins every accepted connection's send buffer to
// 4 KB so a non-reading client makes the server's writes block quickly.
type smallSndbufListener struct{ net.Listener }

func (l smallSndbufListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if tc, ok := c.(*net.TCPConn); err == nil && ok {
		_ = tc.SetWriteBuffer(4096)
	}
	return c, err
}

// syntheticAssembly registers a bare assembly (no served run behind it) so
// tests can drive WriteWindow directly and exercise the HTTP/SSE path at
// full speed.
func syntheticAssembly(s *Server, id string) *Assembly {
	as := &Assembly{
		id: id, server: s, last: make(map[string]monitor.WindowRecord),
		ctl:      ctl.NewController(),
		firings:  make(chan ctl.Firing, firingQueueCap),
		execStop: make(chan struct{}),
	}
	s.mu.Lock()
	s.byID[id] = as
	s.order = append(s.order, as)
	s.mu.Unlock()
	return as
}

// sseWindowCount reads one SSE stream, counting "event: window" frames
// until want frames arrived or the stream ends; it reports the count and
// the highest id seen.
func sseWindowCount(body io.Reader, want int) (int, uint64, error) {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	count := 0
	var lastID uint64
	for sc.Scan() {
		line := sc.Text()
		if line == "event: window" {
			count++
		}
		if rest, ok := strings.CutPrefix(line, "id: "); ok {
			fmt.Sscanf(rest, "%d", &lastID)
		}
		if count >= want {
			return count, lastID, nil
		}
	}
	return count, lastID, sc.Err()
}

// TestServerSSESoak is the acceptance soak: 32 concurrent SSE subscribers
// — 31 reading promptly, one deliberately stalled at the TCP level — over
// well past 1000 windows. Fast subscribers must see every window, the
// stalled one must shed with exact accounting, and the post-soak heap must
// be flat (no per-subscriber retention beyond one bounded queue).
func TestServerSSESoak(t *testing.T) {
	const (
		nFast    = 31
		total    = 1500
		queueCap = 256
		// maxSkew bounds how far the publisher may run ahead of the
		// slowest fast reader. Keeping the bound well under queueCap makes
		// "fast subscribers never drop" deterministic instead of a
		// scheduling-luck property: a fast subscriber's queue occupancy
		// can never exceed the skew.
		maxSkew = 128
	)
	s := NewServer(Config{QueueCap: queueCap})
	as := syntheticAssembly(s, "a0")
	// Pin the server-side socket send buffers small (SetWriteBuffer
	// disables autotuning): otherwise the kernel absorbs megabytes of SSE
	// frames for the stalled reader and its broker queue never overflows
	// within the soak.
	ts := httptest.NewUnstartedServer(s.Handler())
	ts.Listener = smallSndbufListener{ts.Listener}
	ts.Start()
	// Force-close the SSE connections before Close: handlers parked on an
	// idle queue only return when their client goes away, and Close waits
	// for them.
	defer func() {
		ts.CloseClientConnections()
		ts.Close()
	}()

	// Fat windows make both the socket stall and any retention bug bite
	// fast: each SSE frame is ~2.5 KB on the wire.
	component := strings.Repeat("k", 2048)

	// Fast readers park on release after counting, so their subscriber
	// accounting is still live when the test snapshots the broker. The
	// release must happen on every exit path — ts.Close waits for the
	// parked connections, so a failed assertion would otherwise deadlock
	// the test binary.
	release := make(chan struct{})
	var releaseOnce sync.Once
	releaseReaders := func() { releaseOnce.Do(func() { close(release) }) }
	defer releaseReaders()
	var wg sync.WaitGroup
	counts := make([]int64, nFast)
	var readerErrs atomic.Int64
	for i := 0; i < nFast; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/v1/assemblies/a0/windows")
			if err != nil {
				readerErrs.Add(1)
				return
			}
			defer resp.Body.Close()
			sc := bufio.NewScanner(resp.Body)
			sc.Buffer(make([]byte, 64*1024), 1024*1024)
			for sc.Scan() {
				if sc.Text() == "event: window" {
					if atomic.AddInt64(&counts[i], 1) == total {
						break
					}
				}
			}
			if atomic.LoadInt64(&counts[i]) != total {
				readerErrs.Add(1)
				return
			}
			<-release
		}(i)
	}

	// The stalled reader: a raw connection that sends the request and then
	// never reads a byte. A tiny receive buffer makes the server's writes
	// block early, so its broker queue fills and sheds within the soak.
	stalledConn, err := net.Dial("tcp", strings.TrimPrefix(ts.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer stalledConn.Close()
	if tc, ok := stalledConn.(*net.TCPConn); ok {
		_ = tc.SetReadBuffer(4096)
	}
	fmt.Fprintf(stalledConn, "GET /v1/assemblies/a0/windows HTTP/1.1\r\nHost: soak\r\nAccept: text/event-stream\r\n\r\n")

	waitForCond(t, "32 subscribers", func() bool { return s.Broker().Subscribers() == nFast+1 })

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)

	slowest := func() int64 {
		min := int64(total)
		for i := range counts {
			if n := atomic.LoadInt64(&counts[i]); n < min {
				min = n
			}
		}
		return min
	}
	for i := 0; i < total; i++ {
		err := as.WriteWindow(monitor.WindowStats{
			Component: component,
			StartUS:   int64(i) * 1000,
			EndUS:     int64(i+1) * 1000,
			Samples:   4,
		})
		if err != nil {
			t.Fatalf("window %d: %v", i, err)
		}
		if (i+1)%64 == 0 {
			floor := int64(i - maxSkew)
			waitForCond(t, "fast readers to keep pace", func() bool {
				return readerErrs.Load() != 0 || slowest() >= floor
			})
		}
	}
	waitForCond(t, "every fast reader to finish counting", func() bool {
		return readerErrs.Load() != 0 || slowest() == total
	})

	if n := readerErrs.Load(); n != 0 {
		t.Fatalf("%d fast readers errored", n)
	}
	for i := range counts {
		if got := atomic.LoadInt64(&counts[i]); got != total {
			t.Fatalf("fast subscriber %d saw %d of %d windows", i, got, total)
		}
	}

	// Exact accounting, straight from the broker: every subscriber matched
	// every window; the fast ones shed nothing; the stalled one's books
	// balance to the event and it did shed.
	subs := s.Broker().SubscriberSnapshots()
	if len(subs) != nFast+1 {
		t.Fatalf("got %d subscriber snapshots, want %d", len(subs), nFast+1)
	}
	stalledSeen := 0
	for _, ss := range subs {
		if ss.Matched != total {
			t.Fatalf("subscriber %d matched %d of %d", ss.ID, ss.Matched, total)
		}
		if ss.Enqueued+ss.Dropped != ss.Matched {
			t.Fatalf("subscriber %d accounting leak: %d + %d != %d",
				ss.ID, ss.Enqueued, ss.Dropped, ss.Matched)
		}
		if ss.Dropped > 0 {
			stalledSeen++
			if ss.Dropped != uint64(total)-ss.Enqueued {
				t.Fatalf("stalled subscriber %d: dropped %d, want exactly %d",
					ss.ID, ss.Dropped, uint64(total)-ss.Enqueued)
			}
		}
	}
	if stalledSeen != 1 {
		t.Fatalf("%d subscribers shed events, want exactly the stalled one", stalledSeen)
	}
	if agg := s.Broker().Dropped(); agg == 0 {
		t.Fatal("aggregate drop counter never moved")
	}
	if as.Windows() != total {
		t.Fatalf("assembly published %d windows, want %d", as.Windows(), total)
	}

	// Flat memory: once the subscribers drain, the heap must come back to
	// baseline — nothing of the ~115 MB pushed through the broker may be
	// retained. Unbounded buffering of the stalled subscriber alone would
	// hold total × ~2.5 KB ≈ 3.7 MB.
	releaseReaders()
	wg.Wait()
	stalledConn.Close()
	waitForCond(t, "handlers to unsubscribe", func() bool { return s.Broker().Subscribers() == 0 })
	runtime.GC()
	runtime.ReadMemStats(&m1)
	if m1.HeapAlloc > m0.HeapAlloc && m1.HeapAlloc-m0.HeapAlloc > 2<<20 {
		t.Fatalf("heap grew %.1f MB over the soak — subscriber buffering is not bounded",
			float64(m1.HeapAlloc-m0.HeapAlloc)/(1<<20))
	}
}

// TestServerEndToEnd runs a real served assembly (smp × pipeline) behind
// the full HTTP surface: listing, snapshot, SSE, every control verb, the
// health and metrics endpoints, and the 4xx paths.
func TestServerEndToEnd(t *testing.T) {
	p := platform.MustGet("smp")
	w, err := platform.GetWorkload("pipeline")
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(Config{})
	as, err := s.AddAssembly("pipe", p, w, exp.ServedOptions{
		Options: exp.Options{
			Options: platform.Options{Scale: 40},
			Monitor: &monitor.Config{},
		},
		Pace: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, body
	}
	control := func(body string) (int, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/assemblies/pipe/control", "application/json",
			bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, b
	}

	// SSE: at least two windows arrive on the per-assembly stream.
	resp, err := http.Get(ts.URL + "/v1/assemblies/pipe/windows")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE content type %q", ct)
	}
	if n, _, err := sseWindowCount(resp.Body, 2); n < 2 {
		t.Fatalf("saw %d windows over SSE (err %v), want >= 2", n, err)
	}
	resp.Body.Close()

	// The aggregate stream serves SSE under content negotiation and JSON
	// otherwise.
	req, _ := http.NewRequest("GET", ts.URL+"/v1/assemblies", nil)
	req.Header.Set("Accept", "text/event-stream")
	aresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if ct := aresp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("aggregate SSE content type %q", ct)
	}
	if n, _, err := sseWindowCount(aresp.Body, 2); n < 2 {
		t.Fatalf("aggregate stream saw %d windows (err %v)", n, err)
	}
	aresp.Body.Close()

	code, body := get("/v1/assemblies")
	if code != http.StatusOK {
		t.Fatalf("listing: %d %s", code, body)
	}
	var listing []Snapshot
	if err := json.Unmarshal(body, &listing); err != nil {
		t.Fatalf("listing did not parse: %v\n%s", err, body)
	}
	if len(listing) != 1 || listing[0].ID != "pipe" || listing[0].Platform != "smp" {
		t.Fatalf("listing content: %+v", listing)
	}

	// Control: retune the sampling period and the window live, then
	// pause/resume, and verify the snapshot reflects it all.
	if code, body := control(`{"action":"set-period","level":"application","period_us":500}`); code != http.StatusOK {
		t.Fatalf("set-period: %d %s", code, body)
	}
	if code, body := control(`{"action":"set-window","window_us":5000}`); code != http.StatusOK {
		t.Fatalf("set-window: %d %s", code, body)
	}
	if code, body := control(`{"action":"pause"}`); code != http.StatusOK {
		t.Fatalf("pause: %d %s", code, body)
	}
	code, body = get("/v1/assemblies/pipe")
	var snap Snapshot
	if code != http.StatusOK || json.Unmarshal(body, &snap) != nil {
		t.Fatalf("snapshot: %d %s", code, body)
	}
	if !snap.Paused || snap.WindowUS != 5000 ||
		len(snap.Levels) != 1 || snap.Levels[0].PeriodUS != 500 || snap.Levels[0].Level != "application" {
		t.Fatalf("control changes not visible in snapshot: %+v", snap)
	}
	if code, body := control(`{"action":"resume"}`); code != http.StatusOK {
		t.Fatalf("resume: %d %s", code, body)
	}

	// Error paths: bad action, bad level, unknown assembly, and a
	// reconnect on a parked assembly (409 via exp.ErrNotRunning).
	if code, _ := control(`{"action":"warp"}`); code != http.StatusBadRequest {
		t.Fatalf("unknown action: %d", code)
	}
	if code, _ := control(`{"action":"set-period","level":"quantum","period_us":5}`); code != http.StatusBadRequest {
		t.Fatalf("unknown level: %d", code)
	}
	if code, _ := get("/v1/assemblies/nope"); code != http.StatusNotFound {
		t.Fatalf("unknown assembly: %d", code)
	}
	if code, body := control(`{"action":"stop"}`); code != http.StatusOK {
		t.Fatalf("stop: %d %s", code, body)
	}
	waitForCond(t, "assembly to park after stop", func() bool {
		st := as.Run().Stats()
		return st.Stopped && !st.Running
	})
	if code, _ := control(`{"action":"reconnect","from":"Source","required":"out0","to":"Sink","provided":"in"}`); code != http.StatusConflict {
		t.Fatalf("reconnect on parked assembly: %d, want 409", code)
	}
	if code, body := control(`{"action":"start"}`); code != http.StatusOK {
		t.Fatalf("start: %d %s", code, body)
	}
	waitForCond(t, "assembly to relaunch", func() bool { return !as.Run().Stats().Stopped })

	// Health and metrics.
	code, body = get("/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz: %d %s", code, body)
	}
	var health healthReply
	if err := json.Unmarshal(body, &health); err != nil || health.Status != "ok" {
		t.Fatalf("healthz body: %v %s", err, body)
	}
	code, body = get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	for _, want := range []string{
		"embera_serve_goroutines",
		"embera_serve_heap_alloc_bytes",
		"embera_serve_subscribers",
		"embera_serve_events_published_total",
		`embera_serve_generations_total{assembly="pipe",platform="smp",workload="pipeline"}`,
		`embera_window_send_rate{assembly="pipe",component="Sink"}`,
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("metrics output missing %q:\n%s", want, body)
		}
	}
}

// TestServerAddAssembly covers the registration seams: auto IDs, duplicate
// rejection, and the launch-failure path unreserving the ID.
func TestServerAddAssembly(t *testing.T) {
	p := platform.MustGet("smp")
	w, err := platform.GetWorkload("pipeline")
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(Config{})
	defer s.Close()

	as, err := s.AddAssembly("", p, w, exp.ServedOptions{Pace: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if as.ID() != "a0" {
		t.Fatalf("auto ID %q, want a0", as.ID())
	}
	if _, err := s.AddAssembly("a0", p, w, exp.ServedOptions{Pace: time.Millisecond}); err == nil {
		t.Fatal("duplicate ID accepted")
	}
	// A bad option set must fail the launch and release the ID.
	bad := exp.ServedOptions{Options: exp.Options{Options: platform.Options{Scale: -1}}}
	if _, err := s.AddAssembly("x", p, w, bad); err == nil {
		t.Fatal("AddAssembly accepted a negative scale")
	}
	if _, ok := s.Assembly("x"); ok {
		t.Fatal("failed launch left its ID registered")
	}
	if n := len(s.Assemblies()); n != 1 {
		t.Fatalf("%d assemblies registered, want 1", n)
	}
}

// TestMetricsEffectivePeriodMovesUnderLoad runs a native assembly under an
// impossible adaptive overhead budget and asserts the
// embera_serve_monitor_effective_period_us gauge moves above the configured
// base period — the scrapable proof that the controller is governing the
// live sampling rate — while the configured-period gauge and the budget
// gauge report what was asked for.
func TestMetricsEffectivePeriodMovesUnderLoad(t *testing.T) {
	p := platform.MustGet("native")
	w, err := platform.GetWorkload("pipeline")
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(Config{})
	defer s.Close()
	if _, err := s.AddAssembly("adapt", p, w, exp.ServedOptions{
		Options: exp.Options{
			Options: platform.Options{Scale: 40},
			Monitor: &monitor.Config{
				Levels: []monitor.LevelPeriod{{Level: core.LevelAll, PeriodUS: 100}},
				// With native sampling ticks costing microseconds, this
				// budget is unmeetable at a 100 µs period: the controller
				// must back the effective period off.
				OverheadBudgetPct: 0.0001,
			},
		},
		Pace: time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	effRe := regexp.MustCompile(
		`embera_serve_monitor_effective_period_us\{assembly="adapt",level="all"\} (\S+)`)
	var lastBody []byte
	waitForCond(t, "effective-period gauge to rise above the 100µs base", func() bool {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		lastBody, _ = io.ReadAll(resp.Body)
		m := effRe.FindSubmatch(lastBody)
		if m == nil {
			return false
		}
		v, err := strconv.ParseFloat(string(m[1]), 64)
		return err == nil && v > 100
	})
	// The configured period and the budget stay as asked — the controller
	// only governs the effective gauge.
	for _, want := range []string{
		`embera_serve_monitor_period_us{assembly="adapt",level="all"} 100`,
		`embera_serve_monitor_overhead_budget_pct{assembly="adapt",platform="native",workload="pipeline"} 0.0001`,
	} {
		if !strings.Contains(string(lastBody), want) {
			t.Fatalf("metrics output missing %q:\n%s", want, lastBody)
		}
	}
}

// TestControlRejectsNonPositiveTuning pins the control API's input
// validation: zero and negative set-period/set-window values must be 400s
// under the standard error contract, decided at the handler door — never
// values handed on toward the monitor. The migrate action rides the same
// request shape as reconnect and reports its own errors through the
// contract too.
func TestControlRejectsNonPositiveTuning(t *testing.T) {
	p := platform.MustGet("smp")
	w, err := platform.GetWorkload("pipeline")
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(Config{})
	defer s.Close()
	if _, err := s.AddAssembly("pipe", p, w, exp.ServedOptions{
		Options: exp.Options{Options: platform.Options{Scale: 40}, Monitor: &monitor.Config{}},
		Pace:    time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	control := func(body string) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/assemblies/pipe/control", "application/json",
			bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	for _, tc := range []struct{ name, body string }{
		{"zero period", `{"action":"set-period","level":"application","period_us":0}`},
		{"negative period", `{"action":"set-period","level":"application","period_us":-100}`},
		{"omitted period", `{"action":"set-period","level":"application"}`},
		{"zero window", `{"action":"set-window","window_us":0}`},
		{"negative window", `{"action":"set-window","window_us":-5}`},
	} {
		code, body := control(tc.body)
		if code != http.StatusBadRequest {
			t.Fatalf("%s: %d %s, want 400", tc.name, code, body)
		}
		var rep map[string]string
		if err := json.Unmarshal([]byte(body), &rep); err != nil || rep["error"] == "" {
			t.Fatalf("%s: error contract broken: %v %s", tc.name, err, body)
		}
	}
	// A sane retune still passes after all the rejections.
	if code, body := control(`{"action":"set-period","level":"application","period_us":500}`); code != http.StatusOK {
		t.Fatalf("valid set-period: %d %s", code, body)
	}
	// Migrate is wired through to the run: against a live generation,
	// unknown components surface as a 400 through the error contract. A 409
	// just means the request landed between generations — retry until a
	// generation answers.
	var code int
	var body string
	waitForCond(t, "a live generation to answer the migrate", func() bool {
		code, body = control(`{"action":"migrate","from":"nope","required":"out","to":"also-nope","provided":"in"}`)
		return code != http.StatusConflict
	})
	if code != http.StatusBadRequest {
		t.Fatalf("migrate with unknown components: %d %s, want 400", code, body)
	}
}

// TestPoliciesEndpointAndExecutor closes the observe→act loop over HTTP: a
// posted depth policy must install, fire on the assembly's own windows, and
// have its action applied by the executor — all visible through GET
// /policies, the snapshot, and the embera_ctl_* metrics.
func TestPoliciesEndpointAndExecutor(t *testing.T) {
	p := platform.MustGet("smp")
	w, err := platform.GetWorkload("pipeline")
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(Config{})
	defer s.Close()
	as, err := s.AddAssembly("fb", p, w, exp.ServedOptions{
		Options: exp.Options{Options: platform.Options{Scale: 40}, Monitor: &monitor.Config{}},
		Pace:    time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(path, body string) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	// Rejections first: malformed body, invalid policy, unknown level in a
	// set-period action, unknown assembly.
	if code, _ := post("/v1/assemblies/fb/policies", `{`); code != http.StatusBadRequest {
		t.Fatalf("malformed body: %d, want 400", code)
	}
	if code, body := post("/v1/assemblies/fb/policies",
		`[{"name":"p","component":"Sink","metric":"vibes","op":">","threshold":1,"action":{"type":"pause"}}]`); code != http.StatusBadRequest {
		t.Fatalf("invalid metric: %d %s, want 400", code, body)
	}
	if code, body := post("/v1/assemblies/fb/policies",
		`[{"name":"p","component":"Sink","metric":"send_rate","op":">","threshold":1,"action":{"type":"set-period","level":"quantum","period_us":100}}]`); code != http.StatusBadRequest {
		t.Fatalf("unknown level: %d %s, want 400", code, body)
	}
	if code, _ := post("/v1/assemblies/nope/policies", `[]`); code != http.StatusNotFound {
		t.Fatalf("unknown assembly: %d, want 404", code)
	}
	if st := as.Ctl().Status(); len(st) != 0 {
		t.Fatalf("rejected posts left policies installed: %+v", st)
	}

	// Install a rule that must fire on the first Sink window (recv_rate is
	// always >= 0) and pause sampling; a long cooldown keeps it to one shot.
	policy := `[{"name":"quiet-down","component":"Sink","metric":"recv_rate","op":">=","threshold":0,
		"cooldown_windows":1000000,"action":{"type":"pause"}}]`
	if code, body := post("/v1/assemblies/fb/policies", policy); code != http.StatusOK {
		t.Fatalf("install: %d %s", code, body)
	}

	waitForCond(t, "the policy to fire and the executor to pause sampling", func() bool {
		fired, _, _ := as.Ctl().Counters()
		return fired >= 1 && as.Run().Stats().Paused
	})

	// GET reports the installed rule with its live counters.
	resp, err := http.Get(ts.URL + "/v1/assemblies/fb/policies")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var rep policiesReply
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatalf("policies GET did not parse: %v\n%s", err, b)
	}
	if len(rep.Policies) != 1 || rep.Policies[0].Name != "quiet-down" {
		t.Fatalf("policies: %+v", rep.Policies)
	}
	if len(rep.Status) != 1 || rep.Status[0].Fired < 1 || rep.Status[0].ExecErrors != 0 {
		t.Fatalf("status: %+v", rep.Status)
	}

	// The self-metrics show the loop's accounting.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		`embera_ctl_policies{assembly="fb",platform="smp",workload="pipeline"} 1`,
		`embera_ctl_actions_taken_total{assembly="fb",platform="smp",workload="pipeline"} 1`,
		"embera_ctl_action_errors_total",
		"embera_ctl_firings_dropped_total",
	} {
		if !strings.Contains(string(mb), want) {
			t.Fatalf("metrics output missing %q:\n%s", want, mb)
		}
	}

	// An empty set uninstalls: feedback control off, sampling resumable.
	if code, body := post("/v1/assemblies/fb/policies", `[]`); code != http.StatusOK {
		t.Fatalf("uninstall: %d %s", code, body)
	}
	if got := as.Ctl().Policies(); len(got) != 0 {
		t.Fatalf("policies after uninstall: %+v", got)
	}
	if code, body := post("/v1/assemblies/fb/control", `{"action":"resume"}`); code != http.StatusOK {
		t.Fatalf("resume: %d %s", code, body)
	}
	waitForCond(t, "sampling to resume", func() bool { return !as.Run().Stats().Paused })
}

// TestPostBodiesAndPolicyCountAreBounded: a control or policies body past
// maxBodyBytes is refused with 413, a set of ctl.MaxPolicies+1 policies is
// refused with 400 and leaves the installed set alone, and a set of
// exactly the cap installs.
func TestPostBodiesAndPolicyCountAreBounded(t *testing.T) {
	p := platform.MustGet("smp")
	w, err := platform.GetWorkload("pipeline")
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(Config{})
	defer s.Close()
	as, err := s.AddAssembly("cap", p, w, exp.ServedOptions{
		Options: exp.Options{Options: platform.Options{Scale: 4}, Monitor: &monitor.Config{}},
		Pace:    time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	post := func(path string, body []byte) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}
	policies := func(n int) []byte {
		ps := make([]ctl.Policy, n)
		for i := range ps {
			ps[i] = ctl.Policy{
				Name: fmt.Sprintf("p%d", i), Component: "Sink",
				Metric: ctl.MetricSendRate, Op: ">", Threshold: 1e18,
				Action: ctl.Action{Type: ctl.ActPause},
			}
		}
		b, err := json.Marshal(ps)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	pad := strings.Repeat("x", maxBodyBytes)
	if code, body := post("/v1/assemblies/cap/control", []byte(`{"action":"stop","pad":"`+pad+`"}`)); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized control body: %d %s, want 413", code, body)
	}
	if code, body := post("/v1/assemblies/cap/policies", []byte(`[{"name":"`+pad+`"}]`)); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized policies body: %d %s, want 413", code, body)
	}

	if code, body := post("/v1/assemblies/cap/policies", policies(1)); code != http.StatusOK {
		t.Fatalf("install one policy: %d %s", code, body)
	}
	if code, body := post("/v1/assemblies/cap/policies", policies(ctl.MaxPolicies+1)); code != http.StatusBadRequest {
		t.Errorf("cap+1 policies: %d %s, want 400", code, body)
	}
	if got := as.Ctl().Policies(); len(got) != 1 || got[0].Name != "p0" {
		t.Errorf("a rejected set replaced the installed one: %+v", got)
	}
	if code, body := post("/v1/assemblies/cap/policies", policies(ctl.MaxPolicies)); code != http.StatusOK {
		t.Fatalf("exactly the cap: %d %s, want 200", code, body)
	}
	if got := as.Ctl().Policies(); len(got) != ctl.MaxPolicies {
		t.Errorf("installed %d policies, want %d", len(got), ctl.MaxPolicies)
	}
}
