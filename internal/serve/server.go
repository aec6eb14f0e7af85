package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"embera/internal/ctl"
	"embera/internal/exp"
	"embera/internal/monitor"
	"embera/internal/platform"
	"embera/internal/replaywl"
	"embera/internal/trace"
)

// firingQueueCap bounds the per-assembly executor queue: a controller that
// decides faster than actions apply sheds firings with a counted drop
// rather than ever blocking the monitor's pump.
const firingQueueCap = 64

// Config parameterizes a Server. The zero value is serviceable.
type Config struct {
	// QueueCap is the per-SSE-subscriber event queue capacity (0 selects
	// DefaultQueueCap). A stalled reader holds at most this many events.
	QueueCap int
}

// Server owns a set of served assemblies and the HTTP surface over them:
// SSE window streams, the live control API, health and metrics. Create
// with NewServer, add assemblies, then mount Handler on an http.Server.
type Server struct {
	broker *Broker
	start  time.Time

	mu    sync.Mutex
	byID  map[string]*Assembly
	order []*Assembly // insertion order, for stable listings
}

// NewServer creates an empty server.
func NewServer(cfg Config) *Server {
	return &Server{
		broker: NewBroker(cfg.QueueCap),
		start:  time.Now(),
		byID:   make(map[string]*Assembly),
	}
}

// Broker exposes the server's fan-out broker (tests, custom subscribers).
func (s *Server) Broker() *Broker { return s.broker }

// AddAssembly launches workload w on platform p as a served assembly under
// the given ID ("" auto-assigns a0, a1, …). The assembly's monitor config
// comes from sopts.Monitor; the server appends its own streaming sink so
// every closed window reaches the broker.
func (s *Server) AddAssembly(id string, p platform.Platform, w platform.Workload, sopts exp.ServedOptions) (*Assembly, error) {
	s.mu.Lock()
	if id == "" {
		id = fmt.Sprintf("a%d", len(s.order))
	}
	if _, dup := s.byID[id]; dup {
		s.mu.Unlock()
		return nil, fmt.Errorf("serve: duplicate assembly id %q", id)
	}
	// Reserve the ID before the (slow) launch so concurrent adds cannot
	// collide on it.
	s.byID[id] = nil
	s.mu.Unlock()

	as := &Assembly{
		id: id, server: s, last: make(map[string]monitor.WindowRecord),
		ctl:      ctl.NewController(),
		firings:  make(chan ctl.Firing, firingQueueCap),
		execStop: make(chan struct{}),
	}
	if sopts.Monitor == nil {
		sopts.Monitor = &monitor.Config{}
	} else {
		mcfg := *sopts.Monitor
		sopts.Monitor = &mcfg
	}
	sopts.Monitor.Sinks = append(append([]monitor.Sink(nil), sopts.Monitor.Sinks...), as)
	run, err := exp.RunServed(p, w, sopts)
	if err != nil {
		s.mu.Lock()
		delete(s.byID, id)
		s.mu.Unlock()
		return nil, err
	}
	as.run.Store(run)
	go as.execLoop()
	s.mu.Lock()
	s.byID[id] = as
	s.order = append(s.order, as)
	s.mu.Unlock()
	return as, nil
}

// Assemblies returns the assemblies in insertion order.
func (s *Server) Assemblies() []*Assembly {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Assembly(nil), s.order...)
}

// Assembly looks one assembly up by ID.
func (s *Server) Assembly(id string) (*Assembly, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	as, ok := s.byID[id]
	return as, ok && as != nil
}

// Close shuts every assembly down and waits for their generation loops.
func (s *Server) Close() {
	for _, as := range s.Assemblies() {
		as.stopExec.Do(func() { close(as.execStop) })
		as.Run().Close()
	}
}

// Assembly is one served platform×workload pair: the exp.ServedRun doing
// the work plus the streaming seam that feeds its windows to the broker.
// It implements monitor.Sink (every generation's monitor writes closed
// windows here) and monitor.CounterAttacher (each generation's monitor
// wires its loss counters in, so published records carry ring-drop and
// sink-error accounting).
type Assembly struct {
	id     string
	server *Server
	run    atomic.Pointer[exp.ServedRun]
	seq    atomic.Uint64

	// Feedback control: the controller decides inside WriteWindow (pure,
	// never blocks); firings cross this bounded queue to the executor
	// goroutine, which applies them through the served run's control
	// surface. A full queue sheds with a counted drop.
	ctl            *ctl.Controller
	firings        chan ctl.Firing
	execStop       chan struct{}
	stopExec       sync.Once
	firingsDropped atomic.Uint64

	mu       sync.Mutex
	counters monitor.LossCounters
	last     map[string]monitor.WindowRecord // latest window per component
	windows  uint64
}

// ID returns the assembly's server-unique ID.
func (as *Assembly) ID() string { return as.id }

// Ctl returns the assembly's feedback controller (policy install, status).
func (as *Assembly) Ctl() *ctl.Controller { return as.ctl }

// FiringsDropped counts firings shed because the executor queue was full.
func (as *Assembly) FiringsDropped() uint64 { return as.firingsDropped.Load() }

// execLoop is the assembly's action executor: it applies each queued
// firing through the served run's control surface. Failures are counted
// against the policy (visible in status and the embera_ctl_* metrics), not
// fatal — the next window re-evaluates the rule.
func (as *Assembly) execLoop() {
	for {
		select {
		case <-as.execStop:
			return
		case f := <-as.firings:
			if err := as.apply(f.Policy.Action); err != nil {
				as.ctl.NoteError(f.Policy.Name)
			}
		}
	}
}

// apply maps one control action onto the served run's control surface:
// the vocabulary a fired policy and POST …/control share. The run checks
// its own arguments, so a bad value is an error here, never a value handed
// on toward the monitor.
func (as *Assembly) apply(a ctl.Action) error {
	run := as.Run()
	switch a.Type {
	case ctl.ActReconnect:
		return run.Reconnect(a.From, a.Required, a.To, a.Provided)
	case ctl.ActMigrate:
		return run.Migrate(a.From, a.Required, a.To, a.Provided)
	case ctl.ActTerminate:
		return run.Terminate(a.Component)
	case ctl.ActSetPeriod:
		level, err := ctl.ParseLevel(a.Level)
		if err != nil {
			return err
		}
		return run.SetPeriod(level, a.PeriodUS)
	case ctl.ActSetWindow:
		return run.SetWindowUS(a.WindowUS)
	case ctl.ActPause:
		run.Pause()
		return nil
	case ctl.ActResume:
		run.Resume()
		return nil
	}
	return fmt.Errorf("unknown action %q", a.Type)
}

// Run returns the underlying served run (control surface and stats).
func (as *Assembly) Run() *exp.ServedRun { return as.run.Load() }

// Windows reports how many windows the assembly has published.
func (as *Assembly) Windows() uint64 {
	as.mu.Lock()
	defer as.mu.Unlock()
	return as.windows
}

// LastWindows returns the latest window record per component — the
// "current" aggregates /metrics exports as gauges.
func (as *Assembly) LastWindows() []monitor.WindowRecord {
	as.mu.Lock()
	defer as.mu.Unlock()
	out := make([]monitor.WindowRecord, 0, len(as.last))
	for _, rec := range as.last {
		out = append(out, rec)
	}
	return out
}

// AttachCounters implements monitor.CounterAttacher; each generation's
// monitor attaches itself when built.
func (as *Assembly) AttachCounters(c monitor.LossCounters) {
	as.mu.Lock()
	as.counters = c
	as.mu.Unlock()
}

// WriteWindow implements monitor.Sink: flatten the window, stamp the
// current generation's loss counters, remember it as the component's
// latest, and publish. It never blocks — Publish is non-blocking by
// contract — so the monitor's pump is never held up by subscribers.
func (as *Assembly) WriteWindow(w monitor.WindowStats) error {
	rec := monitor.NewWindowRecord(w)
	as.mu.Lock()
	if as.counters != nil {
		rec.RingDropped = as.counters.Dropped()
		rec.SinkErrors = as.counters.SinkErrors()
	}
	as.last[rec.Component] = rec
	as.windows++
	as.mu.Unlock()
	var gen uint64
	if run := as.run.Load(); run != nil {
		gen = run.Generations()
	}
	as.server.broker.Publish(Event{
		Assembly:   as.id,
		Generation: gen,
		Seq:        as.seq.Add(1),
		Window:     rec,
	})
	// Feed the feedback controller. Observe only decides; the firings are
	// handed to the executor goroutine without ever blocking this flow.
	for _, f := range as.ctl.Observe(rec) {
		select {
		case as.firings <- f:
		default:
			as.firingsDropped.Add(1)
		}
	}
	return nil
}

// LevelSnapshot is one sampler's live configuration on the wire.
type LevelSnapshot struct {
	Level    string `json:"level"`
	PeriodUS int64  `json:"period_us"`
}

// Snapshot is one assembly's state as served by the listing endpoints.
type Snapshot struct {
	ID       string `json:"id"`
	Platform string `json:"platform"`
	Workload string `json:"workload"`

	Running bool `json:"running"`
	Stopped bool `json:"stopped"`
	Paused  bool `json:"paused"`

	Generations     uint64 `json:"generations"`
	CompletedChecks uint64 `json:"completed_checks"`
	Units           uint64 `json:"units"`
	Windows         uint64 `json:"windows"`
	Samples         uint64 `json:"samples"`
	RingDropped     uint64 `json:"ring_dropped"`
	SinkErrors      uint64 `json:"sink_errors"`

	Levels []LevelSnapshot `json:"levels"`
	// EffectiveLevels is the period each sampler is actually running at:
	// above the configured period when the adaptive overhead controller has
	// backed a loaded sampler off.
	EffectiveLevels   []LevelSnapshot `json:"effective_levels"`
	OverheadBudgetPct float64         `json:"overhead_budget_pct,omitempty"`
	WindowUS          int64           `json:"window_us"`
	LastMakespanUS    int64           `json:"last_makespan_us"`

	LastErr             string `json:"last_err,omitempty"`
	ConsecutiveFailures int    `json:"consecutive_failures,omitempty"`
}

// Snapshot captures the assembly's current state.
func (as *Assembly) Snapshot() Snapshot {
	run := as.Run()
	st := run.Stats()
	snap := Snapshot{
		ID:                  as.id,
		Platform:            run.Platform().Name(),
		Workload:            run.Workload().Name(),
		Running:             st.Running,
		Stopped:             st.Stopped,
		Paused:              st.Paused,
		Generations:         st.Generations,
		CompletedChecks:     st.CompletedChecks,
		Units:               st.Units,
		Windows:             as.Windows(),
		Samples:             st.Samples,
		RingDropped:         st.RingDropped,
		SinkErrors:          st.SinkErrors,
		WindowUS:            st.WindowUS,
		LastMakespanUS:      st.LastMakespanUS,
		LastErr:             st.LastErr,
		ConsecutiveFailures: st.ConsecutiveFailures,
	}
	snap.OverheadBudgetPct = st.OverheadBudgetPct
	for _, lp := range st.Levels {
		snap.Levels = append(snap.Levels, LevelSnapshot{Level: lp.Level.String(), PeriodUS: lp.PeriodUS})
	}
	for _, lp := range st.EffectiveLevels {
		snap.EffectiveLevels = append(snap.EffectiveLevels, LevelSnapshot{Level: lp.Level.String(), PeriodUS: lp.PeriodUS})
	}
	return snap
}

// Handler mounts the service's HTTP surface:
//
//	GET  /healthz                       liveness + per-assembly status
//	GET  /metrics                       Prometheus text exposition
//	GET  /v1/assemblies                 JSON listing; SSE window stream of
//	                                    every assembly when the request
//	                                    accepts text/event-stream
//	GET  /v1/assemblies/{id}            one assembly's JSON snapshot
//	GET  /v1/assemblies/{id}/windows    SSE window stream of one assembly
//	POST /v1/assemblies/{id}/control    live control API
//	GET  /v1/assemblies/{id}/policies   installed feedback policies + status
//	POST /v1/assemblies/{id}/policies   replace the feedback policy set
//	GET  /v1/assemblies/{id}/capture    record the next generation as a
//	                                    replayable trace bundle
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/assemblies", s.handleAssemblies)
	mux.HandleFunc("GET /v1/assemblies/{id}", s.handleAssembly)
	mux.HandleFunc("GET /v1/assemblies/{id}/windows", s.handleWindows)
	mux.HandleFunc("POST /v1/assemblies/{id}/control", s.handleControl)
	mux.HandleFunc("GET /v1/assemblies/{id}/policies", s.handlePoliciesGet)
	mux.HandleFunc("POST /v1/assemblies/{id}/policies", s.handlePoliciesPost)
	mux.HandleFunc("GET /v1/assemblies/{id}/capture", s.handleCapture)
	return mux
}

// captureRecorderCap bounds the capture event ring. A generation that
// overflows it is rejected (a dropped event would break the replay model),
// so the cap also bounds the endpoint's memory.
const captureRecorderCap = 1 << 17

// captureTimeout bounds how long /capture waits for a generation to finish
// before giving up with 504. Generations are short (milliseconds of
// virtual time); a stopped assembly simply never delivers.
const captureTimeout = 30 * time.Second

// handleCapture records the assembly's next generation into a replay
// bundle: it arms a trace recorder as that generation's event sink, waits
// for the generation to finish, validates the capture end to end and
// streams the bundle bytes. The result feeds replay:<file> directly —
// a live service run becomes a deterministic benchmark with one GET.
func (s *Server) handleCapture(w http.ResponseWriter, r *http.Request) {
	as, ok := s.lookup(w, r)
	if !ok {
		return
	}
	run := as.Run()
	rec := trace.NewRecorder(captureRecorderCap)
	select {
	case cg := <-run.CaptureNext(rec):
		if cg.Err != nil {
			status := http.StatusInternalServerError
			if errors.Is(cg.Err, exp.ErrNotRunning) {
				status = http.StatusConflict
			}
			writeJSON(w, status, map[string]string{"error": fmt.Sprintf("captured generation failed: %v", cg.Err)})
			return
		}
		b, err := replaywl.Capture(cg.App, run.Platform().Name(), run.Workload().Name(), rec)
		if err == nil {
			err = b.Validate()
		}
		if err != nil {
			// Lossy or incomplete traces (an overflowed ring, a sharded
			// platform recording only its own shard) are not replayable;
			// say so rather than hand out a broken bundle.
			writeJSON(w, http.StatusUnprocessableEntity, map[string]string{"error": err.Error()})
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Disposition",
			fmt.Sprintf("attachment; filename=%q", as.id+".emb"))
		if err := replaywl.WriteBundle(w, b); err != nil {
			// Headers are gone; all we can do is drop the connection.
			return
		}
	case <-r.Context().Done():
		return
	case <-time.After(captureTimeout):
		writeJSON(w, http.StatusGatewayTimeout,
			map[string]string{"error": "no generation finished within the capture window (is the assembly stopped?)"})
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func (s *Server) handleAssemblies(w http.ResponseWriter, r *http.Request) {
	if strings.Contains(r.Header.Get("Accept"), "text/event-stream") {
		s.streamWindows(w, r, "")
		return
	}
	snaps := []Snapshot{}
	for _, as := range s.Assemblies() {
		snaps = append(snaps, as.Snapshot())
	}
	writeJSON(w, http.StatusOK, snaps)
}

func (s *Server) lookup(w http.ResponseWriter, r *http.Request) (*Assembly, bool) {
	id := r.PathValue("id")
	as, ok := s.Assembly(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": fmt.Sprintf("no assembly %q", id)})
		return nil, false
	}
	return as, true
}

func (s *Server) handleAssembly(w http.ResponseWriter, r *http.Request) {
	as, ok := s.lookup(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, as.Snapshot())
}

func (s *Server) handleWindows(w http.ResponseWriter, r *http.Request) {
	as, ok := s.lookup(w, r)
	if !ok {
		return
	}
	s.streamWindows(w, r, as.id)
}

// wireEvent is the SSE data payload: the event plus the reader's own
// cumulative drop count, so every message tells the consumer how much of
// its stream has been shed so far.
type wireEvent struct {
	Event
	SubscriberDropped uint64 `json:"subscriber_dropped"`
}

// streamWindows serves one SSE subscription: subscribe, stream until the
// client goes away. A reader that stops consuming blocks here on Write
// once the socket buffers fill; its queue then sheds with counted drops
// and the rest of the service is unaffected.
func (s *Server) streamWindows(w http.ResponseWriter, r *http.Request, filter string) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	sub := s.broker.Subscribe(filter)
	defer s.broker.Unsubscribe(sub)

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintf(w, "retry: 2000\n\n")
	fl.Flush()

	ctx := r.Context()
	for {
		select {
		case <-ctx.Done():
			return
		case ev := <-sub.C():
			data, err := json.Marshal(wireEvent{Event: ev, SubscriberDropped: sub.Dropped()})
			if err != nil {
				return
			}
			if _, err := fmt.Fprintf(w, "event: window\nid: %d\ndata: %s\n\n", ev.Seq, data); err != nil {
				return
			}
			fl.Flush()
		}
	}
}

// ControlRequest is the control API's POST body: a ctl.Action whose verb
// travels as "action" (same fields, same order, so one converts to the
// other), plus two verbs of the API's own:
//
//	start       relaunch a stopped assembly
//	stop        terminate the live generation, park the assembly
//	pause       suspend sampling (workload keeps running)
//	resume      re-enable sampling
//	set-period  level + period_us: retune a sampler live
//	set-window  window_us: change the aggregation window live
//	reconnect   from + required + to + provided: rewire a live connection
//	migrate     like reconnect, and move the displaced inbox's backlog to
//	            the new provider when the rewire closed it
//	terminate   component: force-stop one component of the live generation
type ControlRequest struct {
	Type      string `json:"action"`
	From      string `json:"from,omitempty"`
	Required  string `json:"required,omitempty"`
	To        string `json:"to,omitempty"`
	Provided  string `json:"provided,omitempty"`
	Component string `json:"component,omitempty"`
	Level     string `json:"level,omitempty"`
	PeriodUS  int64  `json:"period_us,omitempty"`
	WindowUS  int64  `json:"window_us,omitempty"`
}

// maxBodyBytes bounds the JSON body a control or policies POST may send;
// reading stops there and the request is refused with 413.
const maxBodyBytes = 1 << 20

// decodeBody decodes r's JSON body into v, reading at most maxBodyBytes.
// On failure it writes the reply — 413 for an oversized body, 400 for a
// malformed one — and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, what string, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	if err == nil {
		return true
	}
	status := http.StatusBadRequest
	if tooBig := (*http.MaxBytesError)(nil); errors.As(err, &tooBig) {
		status = http.StatusRequestEntityTooLarge
	}
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf("bad %s body: %v", what, err)})
	return false
}

func (s *Server) handleControl(w http.ResponseWriter, r *http.Request) {
	as, ok := s.lookup(w, r)
	if !ok {
		return
	}
	var req ControlRequest
	if !decodeBody(w, r, "control", &req) {
		return
	}
	run := as.Run()
	var err error
	switch req.Type {
	case "start":
		run.Start()
	case "stop":
		run.Stop()
	default:
		err = as.apply(ctl.Action(req))
	}
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, exp.ErrNotRunning) {
			status = http.StatusConflict
		}
		writeJSON(w, status, map[string]string{"error": err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ok": true, "assembly": as.Snapshot()})
}

// policiesReply is the GET /policies body: the installed rule set plus its
// live hysteresis state and counters.
type policiesReply struct {
	Policies []ctl.Policy       `json:"policies"`
	Status   []ctl.PolicyStatus `json:"status"`
}

func (s *Server) handlePoliciesGet(w http.ResponseWriter, r *http.Request) {
	as, ok := s.lookup(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, policiesReply{
		Policies: as.ctl.Policies(),
		Status:   as.ctl.Status(),
	})
}

// handlePoliciesPost replaces the assembly's feedback policy set with the
// posted JSON array. The whole set validates or nothing is installed; an
// empty array turns feedback control off.
func (s *Server) handlePoliciesPost(w http.ResponseWriter, r *http.Request) {
	as, ok := s.lookup(w, r)
	if !ok {
		return
	}
	var ps []ctl.Policy
	if !decodeBody(w, r, "policies", &ps) {
		return
	}
	if err := as.ctl.SetPolicies(ps); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ok": true, "installed": len(ps)})
}

// healthReply is the /healthz body.
type healthReply struct {
	Status        string     `json:"status"`
	UptimeSeconds float64    `json:"uptime_seconds"`
	Subscribers   int        `json:"subscribers"`
	Assemblies    []Snapshot `json:"assemblies"`
}

// handleHealthz reports liveness: 200 while at least the service itself is
// healthy, 503 when any assembly has been parked by repeated generation
// failures (Stopped with a LastErr) — the condition an operator must act
// on.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	rep := healthReply{
		Status:        "ok",
		UptimeSeconds: time.Since(s.start).Seconds(),
		Subscribers:   s.broker.Subscribers(),
		Assemblies:    []Snapshot{},
	}
	status := http.StatusOK
	for _, as := range s.Assemblies() {
		snap := as.Snapshot()
		rep.Assemblies = append(rep.Assemblies, snap)
		if snap.Stopped && snap.LastErr != "" {
			rep.Status = "degraded"
			status = http.StatusServiceUnavailable
		}
	}
	writeJSON(w, status, rep)
}
