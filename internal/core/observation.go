package core

import (
	"fmt"
	"slices"
)

// ObsLevel selects which software level an observation request targets. The
// paper: "MPSoC observation has to take into account at least three levels:
// the system, the middleware and the application level."
type ObsLevel int

// Observation levels.
const (
	LevelOS          ObsLevel = iota + 1 // execution time, memory occupation
	LevelMiddleware                      // send/receive primitive timings
	LevelApplication                     // structure + communication counters
	LevelAll                             // everything
)

func (l ObsLevel) String() string {
	switch l {
	case LevelOS:
		return "os"
	case LevelMiddleware:
		return "middleware"
	case LevelApplication:
		return "application"
	case LevelAll:
		return "all"
	default:
		return fmt.Sprintf("level(%d)", int(l))
	}
}

// ObsRequest travels to a component's provided observation interface.
type ObsRequest struct {
	Level ObsLevel
}

// MWReport is the middleware-level observation: per-interface send/receive
// statistics.
type MWReport struct {
	Send map[string]IfaceStats
	Recv map[string]IfaceStats
}

// IfaceInfo describes one interface for the structure listing (Figure 5).
// Depth is the number of messages buffered in a provided interface's mailbox
// at report time — sampling it over a run shows pipeline fill and
// backpressure, the dynamic counterpart of §6's "evolution of memory during
// the execution".
type IfaceInfo struct {
	Name      string
	Type      string // "provided" or "required"
	Connected bool
	BufBytes  int64
	Depth     int
}

// AppReport is the application-level observation: the component structure
// and "the total number of communication operations performed".
type AppReport struct {
	Interfaces []IfaceInfo
	SendOps    uint64
	RecvOps    uint64
	State      string
}

// ObsReport is a full observation reply. Level-specific sections are nil
// when not requested.
type ObsReport struct {
	Component  string
	Level      ObsLevel
	OS         *OSReport
	Middleware *MWReport
	App        *AppReport
	// Probes carries the values of custom observation functions registered
	// with RegisterProbe (nil when none exist or the level excludes them).
	Probes map[string]int64
}

// Snapshot builds an observation report directly (without the message
// round-trip). The in-simulation path through the observation interfaces
// produces byte-identical reports; Snapshot exists for harness code that
// inspects state after the simulation has finished.
func (c *Component) Snapshot(level ObsLevel) ObsReport {
	// An external component's truth lives in its owning process: once that
	// process published a report override (SetReportOverride), answer from
	// it, filtered down to the requested level.
	if over := c.reportOverride.Load(); over != nil {
		rep := *over
		rep.Level = level
		if level != LevelOS && level != LevelAll {
			rep.OS = nil
		}
		if level != LevelMiddleware && level != LevelAll {
			rep.Middleware = nil
		}
		if level != LevelApplication && level != LevelAll {
			rep.App = nil
			rep.Probes = nil
		}
		return rep
	}
	rep := ObsReport{Component: c.name, Level: level}
	if level == LevelOS || level == LevelAll {
		os := c.app.binding.OSView(c)
		rep.OS = &os
	}
	if level == LevelMiddleware || level == LevelAll {
		rep.Middleware = &MWReport{
			Send: c.stats.snapshotSend(),
			Recv: c.stats.snapshotRecv(),
		}
	}
	if level == LevelApplication || level == LevelAll {
		sendOps, recvOps := c.stats.ops()
		rep.App = &AppReport{
			Interfaces: c.InterfaceList(),
			SendOps:    sendOps,
			RecvOps:    recvOps,
			State:      c.State().String(),
		}
		if len(c.probes) > 0 {
			rep.Probes = make(map[string]int64, len(c.probes))
			for _, name := range c.probeOrder {
				rep.Probes[name] = c.probes[name]()
			}
		}
	}
	return rep
}

// InterfaceList enumerates the component's interfaces in the order the
// paper's Figure 5 prints them: the provided observation interface, the
// application provided interfaces, the required observation interface, then
// the application required interfaces.
func (c *Component) InterfaceList() []IfaceInfo {
	out := []IfaceInfo{{Name: ObsIfaceName, Type: "provided", Connected: true}}
	for _, pi := range c.providedList {
		buf := pi.bufBytes
		depth := 0
		if mb := pi.box(); mb != nil {
			buf = mb.BufBytes()
			depth = mb.Depth()
		}
		c.app.connMu.Lock()
		connected := pi.conns > 0
		c.app.connMu.Unlock()
		out = append(out, IfaceInfo{
			Name: pi.name, Type: "provided",
			Connected: connected, BufBytes: buf, Depth: depth,
		})
	}
	out = append(out, IfaceInfo{Name: ObsIfaceName, Type: "required", Connected: c.app.observer != nil})
	for _, name := range c.requiredOrder {
		out = append(out, IfaceInfo{
			Name: name, Type: "required",
			Connected: c.required[name].Connected(),
		})
	}
	return out
}

// startObservationService runs the component's observation interface: a
// framework service flow that answers ObsRequests arriving on the provided
// observation interface by sending ObsReports through the required one
// (wired to the application's observer, if any).
func (a *App) startObservationService(c *Component) {
	a.binding.SpawnService(c.name+"/obs", func(f Flow) {
		for {
			m, ok := c.obsIn.Receive(f)
			if !ok {
				return
			}
			req, isReq := m.Payload.(ObsRequest)
			if !isReq {
				continue // ignore malformed observation traffic
			}
			rep := c.Snapshot(req.Level)
			a.emit(Event{
				TimeUS: a.binding.NowUS(c), Kind: EvObserve,
				Component: c.name, Interface: ObsIfaceName,
			})
			if a.observer != nil {
				a.observer.inbox.Send(f, Message{Payload: rep, From: c.name})
			}
		}
	})
}

// Observer is the paper's observer component: "the information obtained,
// accessible through the observation interface, is gathered and analyzed by
// a new component connected to the observation interfaces".
type Observer struct {
	app   *App
	inbox Mailbox
}

// AttachObserver creates the application's observer and wires every
// component's required observation interface to it. Call after all
// components exist and before Start.
func (a *App) AttachObserver() (*Observer, error) {
	if a.started.Load() {
		return nil, fmt.Errorf("core: app %q already started", a.Name)
	}
	if a.observer != nil {
		return nil, fmt.Errorf("core: app %q already has an observer", a.Name)
	}
	a.observer = &Observer{app: a, inbox: a.binding.NewServiceQueue(a.Name + "/observer-in")}
	return a.observer, nil
}

// Observer returns the attached observer, or nil.
func (a *App) Observer() *Observer { return a.observer }

// Inbox exposes the observer's service mailbox. Reports from every
// component's observation service arrive here; advanced drivers may share
// the queue for their own control traffic, which Await skips over.
func (o *Observer) Inbox() Mailbox { return o.inbox }

// Request sends an observation request to the named component. It must be
// called from a flow (a driver or a component body).
func (o *Observer) Request(f Flow, component string, level ObsLevel) error {
	c, ok := o.app.comps[component]
	if !ok {
		return fmt.Errorf("core: observer request for unknown component %q", component)
	}
	if c.obsIn == nil {
		return fmt.Errorf("core: app not started; no observation interface yet")
	}
	c.obsIn.Send(f, Message{Payload: ObsRequest{Level: level}, From: "observer"})
	return nil
}

// Await blocks until the next report arrives. Foreign traffic on the
// observer inbox (any payload that is not an ObsReport) is skipped, not
// treated as closure: ok=false means the inbox really closed.
func (o *Observer) Await(f Flow) (ObsReport, bool) {
	for {
		m, ok := o.inbox.Receive(f)
		if !ok {
			return ObsReport{}, false
		}
		if rep, isRep := m.Payload.(ObsReport); isRep {
			return rep, true
		}
		// Not a report: some other flow wrote to the observer inbox.
		// Ignore it and keep waiting, exactly as the per-component
		// observation service ignores malformed requests.
	}
}

// FastSample is the compact observation record used by high-frequency
// monitoring (internal/monitor): a fixed-size struct with no maps and no
// message round-trip, cheap enough to take for every component at every
// sampling tick. The counter fields are cumulative since component start;
// consumers difference consecutive samples to obtain rates.
type FastSample struct {
	Component string
	State     State

	// Middleware/application counters (always filled — reading them is a
	// handful of loads).
	SendOps, RecvOps     uint64
	SendBytes, RecvBytes uint64
	SendUS, RecvUS       int64 // cumulative time inside the primitives

	// Provided-interface occupancy: Depth is the deepest mailbox right
	// now, DepthSum the total buffered messages, BufBytes the total
	// configured capacity.
	Depth    int
	DepthSum int
	BufBytes int64

	// OS-level fields, filled only at LevelOS / LevelAll (OSView walks the
	// platform's thread/task accounting, which is the expensive part).
	ExecTimeUS int64
	MemBytes   int64
	Running    bool
}

// fastSnapshot fills a FastSample from the component's live state. Unlike
// Snapshot it never allocates: the per-interface stat maps are represented
// by their flat totals and the interface listing by its occupancy summary.
// When sv is non-nil the OS view is evaluated at the sweep cookie's clock
// reading instead of taking a fresh one, which is how a sampling sweep
// amortizes one clock read over every component. It writes every field of
// *s.
func (c *Component) fastSnapshot(level ObsLevel, s *FastSample, sv SweepViewer, cookie int64) {
	s.Component = c.name
	s.State = c.State()
	s.SendOps, s.RecvOps, s.SendBytes, s.RecvBytes, s.SendUS, s.RecvUS = c.stats.totals()
	s.Depth, s.DepthSum, s.BufBytes = 0, 0, 0
	for _, pi := range c.providedList {
		mb := pi.box()
		if mb == nil {
			s.BufBytes += pi.bufBytes
			continue
		}
		d := mb.Depth()
		s.DepthSum += d
		if d > s.Depth {
			s.Depth = d
		}
		s.BufBytes += mb.BufBytes()
	}
	s.ExecTimeUS, s.MemBytes, s.Running = 0, 0, false
	if level == LevelOS || level == LevelAll {
		var os OSReport
		if sv != nil {
			os = sv.OSViewAt(c, cookie)
		} else {
			os = c.app.binding.OSView(c)
		}
		s.ExecTimeUS, s.MemBytes, s.Running = os.ExecTimeUS, os.MemBytes, os.Running
	}
}

// SampleSweep is one sampling pass over an application's components, in
// creation order, writing each component's FastSample into a slot its
// caller provides: the streaming monitor fills its ring batch in place
// with it, so a sample is written once rather than built and copied.
type SampleSweep struct {
	comps  []*Component
	level  ObsLevel
	sv     SweepViewer
	cookie int64
}

// BeginSample starts a sampling pass at level. At LevelOS and LevelAll a
// binding exposing the SweepViewer refinement is read once, here, and every
// component's OS view is evaluated against that reading instead of a fresh
// clock read per component.
func (a *App) BeginSample(level ObsLevel) SampleSweep {
	sw := SampleSweep{comps: a.order, level: level}
	if level == LevelOS || level == LevelAll {
		if v, ok := a.binding.(SweepViewer); ok {
			sw.sv, sw.cookie = v, v.BeginSweep()
		}
	}
	return sw
}

// Len reports how many components the pass visits.
func (sw *SampleSweep) Len() int { return len(sw.comps) }

// Fill writes the i-th component's sample into *s, overwriting every
// field, and reports true. An external component is sampled by its owning
// process (windowing it here too would double-count its windows in the
// merged stream of a sharded assembly): Fill leaves *s untouched and
// reports false.
func (sw *SampleSweep) Fill(i int, s *FastSample) bool {
	c := sw.comps[i]
	if c.external.Load() {
		return false
	}
	c.fastSnapshot(sw.level, s, sw.sv, sw.cookie)
	return true
}

// SampleAll is the streaming-observation fast path: one FastSample per
// component, appended to dst (pass dst[:0] to reuse a buffer across ticks),
// in component creation order. It reads component state directly instead of
// routing an ObsRequest/ObsReport pair through the observation interfaces,
// so a periodic sampler costs neither simulated time nor per-tick
// allocation — the prerequisite for sampling every component at millisecond
// periods without perturbing the observed application.
func (a *App) SampleAll(level ObsLevel, dst []FastSample) []FastSample {
	sw := a.BeginSample(level)
	n := len(dst)
	dst = slices.Grow(dst, sw.Len())[:n+sw.Len()]
	for i := 0; i < sw.Len(); i++ {
		if sw.Fill(i, &dst[n]) {
			n++
		}
	}
	return dst[:n]
}

// QueryAll requests level from every component and collects the replies,
// returned keyed by component name.
func (o *Observer) QueryAll(f Flow, level ObsLevel) (map[string]ObsReport, error) {
	for _, c := range o.app.order {
		if err := o.Request(f, c.name, level); err != nil {
			return nil, err
		}
	}
	out := make(map[string]ObsReport, len(o.app.order))
	for range o.app.order {
		rep, ok := o.Await(f)
		if !ok {
			return nil, fmt.Errorf("core: observer inbox closed mid-query")
		}
		out[rep.Component] = rep
	}
	return out, nil
}
