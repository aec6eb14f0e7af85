package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// ErrClosedMailbox reports an attempt to rewire a producer onto a provided
// interface whose mailbox has already closed because it lost its last
// producer. A closed mailbox never reopens: installing it as a send target
// would make the producer's next send vanish.
var ErrClosedMailbox = errors.New("core: provided interface's mailbox is closed")

// ObsIfaceName is the reserved name of the default observation interface
// pair every component carries (Figure 5 lists it as "introspection").
const ObsIfaceName = "introspection"

// State is a component's life-cycle phase, managed through the control
// interface (§3.1: creation, interconnection, launching and termination).
type State int

// Component states.
const (
	StateCreated State = iota
	StateStarted
	StateDone
)

func (s State) String() string {
	switch s {
	case StateCreated:
		return "created"
	case StateStarted:
		return "started"
	case StateDone:
		return "done"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Body is a component's functional code. It communicates exclusively through
// the Ctx — the body contains no observation logic, which is the point of
// the model: "the componentized MJPEG application can be observed without
// modifying its code".
type Body func(ctx *Ctx)

// App is an EMBera application: a named set of components plus their
// connections, deployed onto one platform binding. Mirroring the paper, "the
// deployment of any EMBera application is carried out by explicitly invoking
// control functions into the main application function" — those control
// functions are NewComponent, AddProvided/AddRequired, Connect and Start.
type App struct {
	Name    string
	binding Binding

	comps map[string]*Component
	order []*Component

	composites     map[string]*Composite
	compositeOrder []*Composite

	observer *Observer
	sink     EventSink

	// started is atomic because Terminate (reachable from any goroutine
	// through a platform Interrupt) checks it while Start may still be
	// running on the launching goroutine.
	started atomic.Bool
	// launched flips once Start has finished materializing mailboxes and
	// spawning flows — the point from which live reconfiguration is safe.
	launched atomic.Bool

	// live counts components that have not yet finished; the last one to
	// finish closes quiet and wakes every timer made by NewTimer, so
	// quiescence is an event on every platform, not a poll.
	live    atomic.Int32
	quiet   Mailbox
	timerMu sync.Mutex
	timers  []Timer

	// connMu guards the connection reference counts after Start
	// (ProvidedIface.conns/senders) and serializes Reconnect against
	// component termination. The required-interface target pointer itself
	// is atomic (see RequiredIface) so sends never touch this lock. On
	// platforms with real concurrency a terminating component decrements
	// producer counts while an observation service lists interfaces; the
	// simulated platforms never contend on it.
	connMu sync.Mutex
}

// NewApp creates an application on the given platform binding.
func NewApp(name string, b Binding) *App {
	return &App{
		Name: name, binding: b,
		comps: make(map[string]*Component),
		quiet: b.NewServiceQueue(name + "/quiescence"),
	}
}

// Binding returns the platform binding.
func (a *App) Binding() Binding { return a.binding }

// SetEventSink attaches a trace sink receiving the instrumentation events
// (may be nil to disable). Must be called before Start.
func (a *App) SetEventSink(s EventSink) { a.sink = s }

// NewComponent creates a component with the given functional body. Names
// must be unique within the application.
func (a *App) NewComponent(name string, body Body) (*Component, error) {
	if a.started.Load() {
		return nil, fmt.Errorf("core: app %q already started", a.Name)
	}
	if name == "" || body == nil {
		return nil, fmt.Errorf("core: component needs a name and a body")
	}
	if _, dup := a.comps[name]; dup {
		return nil, fmt.Errorf("core: duplicate component %q", name)
	}
	c := &Component{
		name:      name,
		app:       a,
		body:      body,
		provided:  make(map[string]*ProvidedIface),
		required:  make(map[string]*RequiredIface),
		placement: -1,
		stats:     newStats(),
	}
	a.comps[name] = c
	a.order = append(a.order, c)
	return c, nil
}

// MustNewComponent is NewComponent that panics on error, for assembly code
// with static names.
func (a *App) MustNewComponent(name string, body Body) *Component {
	c, err := a.NewComponent(name, body)
	if err != nil {
		panic(err)
	}
	return c
}

// Component looks a component up by name.
func (a *App) Component(name string) (*Component, bool) {
	c, ok := a.comps[name]
	return c, ok
}

// Components returns all components in creation order.
func (a *App) Components() []*Component {
	return append([]*Component(nil), a.order...)
}

// Connect links from's required interface req to to's provided interface
// prov — "connections between components are established by linking required
// and provided interfaces".
func (a *App) Connect(from *Component, req string, to *Component, prov string) error {
	if a.started.Load() {
		return fmt.Errorf("core: app %q already started", a.Name)
	}
	if from == nil || to == nil {
		return fmt.Errorf("core: connect with nil component")
	}
	ri, ok := from.required[req]
	if !ok {
		return fmt.Errorf("core: %s has no required interface %q", from.name, req)
	}
	if ri.target.Load() != nil {
		return fmt.Errorf("core: %s.%s is already connected", from.name, req)
	}
	pi, ok := to.provided[prov]
	if !ok {
		return fmt.Errorf("core: %s has no provided interface %q", to.name, prov)
	}
	if from == to {
		return fmt.Errorf("core: %s connecting to itself", from.name)
	}
	ri.target.Store(pi)
	pi.conns++
	return nil
}

// MustConnect is Connect that panics on error.
func (a *App) MustConnect(from *Component, req string, to *Component, prov string) {
	if err := a.Connect(from, req, to, prov); err != nil {
		panic(err)
	}
}

// Reconnect atomically rewires a running component's required interface to a
// different provided interface — the dynamic reconfiguration the paper's
// introspection is designed to observe ("valuable information for
// applications which configuration changes dynamically", §4.4). The
// component's next send goes to the new target; an in-flight send completes
// to the old one. If the old target loses its last producer, its mailbox
// closes and the downstream component drains naturally.
//
// Reconnect must be called from kernel context (a scheduled callback) or a
// driver flow, never from inside a component body that is mid-send.
func (a *App) Reconnect(from *Component, req string, to *Component, prov string) error {
	_, _, err := a.rebind(from, req, to, prov)
	return err
}

// rebind is the shared locked core of Reconnect and Migrate: validate the
// rewire, swap the target pointer, settle the reference counts, and close
// the displaced mailbox if this producer was its last. It returns the
// displaced interface and whether that close happened — when it did, the
// old mailbox is already closed on return, so a caller may drain the
// backlog deterministically (Receive empties then reports closed).
func (a *App) rebind(from *Component, req string, to *Component, prov string) (*ProvidedIface, bool, error) {
	if !a.started.Load() {
		return nil, false, fmt.Errorf("core: app %q not started; use Connect during assembly", a.Name)
	}
	if from == nil || to == nil {
		return nil, false, fmt.Errorf("core: reconnect with nil component")
	}
	if from == to {
		return nil, false, fmt.Errorf("core: %s reconnecting to itself", from.name)
	}
	if from.External() || to.External() {
		return nil, false, fmt.Errorf("core: %s -> %s involves an external component; rewire it in its owning process", from.name, to.name)
	}
	ri, ok := from.required[req]
	if !ok {
		return nil, false, fmt.Errorf("core: %s has no required interface %q", from.name, req)
	}
	if ri.transport != nil {
		return nil, false, fmt.Errorf("core: %s.%s is bound to a transport; a remote edge cannot be rewired locally", from.name, req)
	}
	pi, ok := to.provided[prov]
	if !ok {
		return nil, false, fmt.Errorf("core: %s has no provided interface %q", to.name, prov)
	}
	if pi.box() == nil {
		return nil, false, fmt.Errorf("core: %s.%s has no mailbox (app not started?)", to.name, prov)
	}
	a.connMu.Lock()
	defer a.connMu.Unlock()
	// The termination check must sit inside connMu: a component stores
	// StateDone before taking the lock for its producer-release cleanup,
	// so under the lock either the state already reads done (reject the
	// rewire) or the cleanup has not run yet and will see — and later
	// release — the new target this call installs.
	if from.State() == StateDone {
		return nil, false, fmt.Errorf("core: %s already terminated", from.name)
	}
	// A mailbox that lost its last producer is gone for good: sends to it
	// vanish. The check lives under connMu — the same lock every close site
	// holds — so a rewire can never race a close into installing a dead
	// target.
	if pi.closed {
		return nil, false, fmt.Errorf("core: %s.%s: %w", to.name, prov, ErrClosedMailbox)
	}
	old := ri.target.Load()
	// Same-target rewires still churn the counts (net zero) so the closed
	// check above and the refcount bookkeeping run on every call; from's own
	// sender reference keeps pi.senders above zero throughout.
	ri.target.Store(pi)
	pi.conns++
	pi.senders++
	closedOld := false
	if old != nil {
		old.conns--
		old.senders--
		if old.senders == 0 {
			closedOld = true
			old.closed = true
			if mb := old.box(); mb != nil {
				mb.Close()
			}
		}
	}
	return old, closedOld, nil
}

// Start launches the application: it materializes every provided interface
// as a platform mailbox, starts each component's observation service, and
// spawns each component's execution flow (§3.1 "launching").
func (a *App) Start() error {
	if a.started.Load() {
		return fmt.Errorf("core: app %q already started", a.Name)
	}
	a.live.Store(int32(len(a.order)))
	a.started.Store(true)

	// Count live senders per provided interface so mailboxes close when the
	// last producer terminates.
	a.connMu.Lock()
	for _, c := range a.order {
		for _, ri := range c.required {
			if t := ri.target.Load(); t != nil {
				t.senders++
			}
		}
	}
	a.connMu.Unlock()

	for _, c := range a.order {
		for _, pi := range c.providedList {
			mb, err := a.binding.NewMailbox(c, pi.name, pi.bufBytes)
			if err != nil {
				return fmt.Errorf("core: %s.%s: %w", c.name, pi.name, err)
			}
			pi.setBox(mb)
		}
		c.obsIn = a.binding.NewServiceQueue(c.name + "/obs-in")
		a.startObservationService(c)
	}

	for _, c := range a.order {
		c := c
		if err := a.binding.Spawn(c, func(f Flow) { c.run(f) }); err != nil {
			return fmt.Errorf("core: spawning %s: %w", c.name, err)
		}
	}
	a.launched.Store(true)
	return nil
}

// Started reports whether Start has completed: every mailbox exists and
// reconnection is legal. Drivers spawned before Start (wall-clock bindings
// run them immediately) wait on this before touching the live control
// surface — the started flag alone flips at the top of Start, before the
// mailboxes materialize.
func (a *App) Started() bool { return a.launched.Load() }

// Done reports whether the app started with at least one component and
// every one of them, local or external, has finished.
func (a *App) Done() bool {
	return a.started.Load() && len(a.order) > 0 && a.live.Load() == 0
}

// NewTimer returns a timer on the app's binding (see Binding.NewTimer) that
// the app wakes once its last component, local or external, has finished.
func (a *App) NewTimer(fn func()) Timer {
	t := a.binding.NewTimer(fn)
	a.timerMu.Lock()
	a.timers = append(a.timers, t)
	a.timerMu.Unlock()
	return t
}

// finished counts one component done, after its StateDone store; the last
// one closes the quiescence queue and wakes the app's timers, for which
// Done then holds.
func (a *App) finished() {
	if a.live.Add(-1) != 0 {
		return
	}
	a.quiet.Close()
	a.timerMu.Lock()
	defer a.timerMu.Unlock()
	for _, t := range a.timers {
		t.Wake()
	}
}

// AwaitQuiescence blocks the calling flow until every component has
// finished, on the queue the last one closes, so it resumes at that
// instant; on the simulators, an assembly that deadlocks first ends the
// run with the kernel's deadlock error once no timer re-arms. Observation
// drivers use it to query final execution times.
func (a *App) AwaitQuiescence(f Flow) {
	a.quiet.Receive(f)
}

// SpawnDriver starts a harness flow (e.g. an observation driver). Unlike
// observation services it is not a daemon: the platform waits for it, and
// if it blocks forever that is a reportable deadlock.
func (a *App) SpawnDriver(name string, fn func(f Flow)) {
	a.binding.SpawnDriver(name, fn)
}

func (a *App) emit(e Event) {
	if a.sink != nil {
		a.sink.Emit(e)
	}
}

// Component is an EMBera component: a named active entity with provided and
// required interfaces, an execution flow, and the default observation
// interface pair.
type Component struct {
	name string
	app  *App
	body Body

	provided map[string]*ProvidedIface
	// providedList holds the provided interfaces in declaration order, so
	// the per-tick sampling sweep walks them without a map lookup each.
	providedList  []*ProvidedIface
	required      map[string]*RequiredIface
	requiredOrder []string

	placement int
	state     atomic.Int32 // State; atomic so observers read it mid-run
	owner     *Composite   // enclosing composite, if any

	stats      *stats
	probes     map[string]func() int64
	probeOrder []string

	obsIn Mailbox // provided observation interface (service queue)

	// external marks a component whose flow executes in another process
	// (cluster sharding): the local binding registers it without spawning,
	// SampleAll skips it, and FinishExternal drives its life cycle.
	external atomic.Bool

	// reportOverride, when set, answers Snapshot from a report taken by the
	// component's owning process instead of from local state.
	reportOverride atomic.Pointer[ObsReport]

	// platformData is owned by the binding (thread, task, CPU assignment).
	// It is published atomically: on platforms with real concurrency an
	// observation sampler reads it lock-free while the binding lazily
	// creates it under its own lock.
	platformData atomic.Value
}

// PlatformData returns the binding-owned platform state, or nil before the
// binding created it.
func (c *Component) PlatformData() any { return c.platformData.Load() }

// SetPlatformData publishes the binding-owned platform state. Bindings
// serialize creation under their own lock; readers need no lock at all.
func (c *Component) SetPlatformData(v any) { c.platformData.Store(v) }

// Name returns the component name.
func (c *Component) Name() string { return c.name }

// App returns the owning application.
func (c *Component) App() *App { return c.app }

// State returns the life-cycle state.
func (c *Component) State() State { return State(c.state.Load()) }

// Placement returns the placement hint (-1 = platform default).
func (c *Component) Placement() int { return c.placement }

// Place pins the component to a platform-specific location: a core index on
// the SMP binding, a CPU index on the OS21 binding.
func (c *Component) Place(loc int) *Component {
	c.placement = loc
	return c
}

// AddProvided declares a provided interface backed by a mailbox of bufBytes
// capacity (0 selects the binding default). The name "introspection" is
// reserved for the observation interface.
func (c *Component) AddProvided(name string, bufBytes int64) error {
	if c.app.started.Load() {
		return fmt.Errorf("core: app already started")
	}
	if name == "" || name == ObsIfaceName {
		return fmt.Errorf("core: invalid provided interface name %q", name)
	}
	if _, dup := c.provided[name]; dup {
		return fmt.Errorf("core: %s already provides %q", c.name, name)
	}
	if bufBytes < 0 {
		return fmt.Errorf("core: negative buffer size %d", bufBytes)
	}
	pi := &ProvidedIface{comp: c, name: name, bufBytes: bufBytes}
	c.provided[name] = pi
	c.providedList = append(c.providedList, pi)
	return nil
}

// AddRequired declares a required interface (a connection slot).
func (c *Component) AddRequired(name string) error {
	if c.app.started.Load() {
		return fmt.Errorf("core: app already started")
	}
	if name == "" || name == ObsIfaceName {
		return fmt.Errorf("core: invalid required interface name %q", name)
	}
	if _, dup := c.required[name]; dup {
		return fmt.Errorf("core: %s already requires %q", c.name, name)
	}
	c.required[name] = &RequiredIface{comp: c, name: name}
	c.requiredOrder = append(c.requiredOrder, name)
	return nil
}

// MustAddProvided / MustAddRequired panic on error, for static assembly.
func (c *Component) MustAddProvided(name string, bufBytes int64) *Component {
	if err := c.AddProvided(name, bufBytes); err != nil {
		panic(err)
	}
	return c
}

// MustAddRequired declares a required interface, panicking on error.
func (c *Component) MustAddRequired(name string) *Component {
	if err := c.AddRequired(name); err != nil {
		panic(err)
	}
	return c
}

// RegisterProbe attaches a named custom observation function to the
// component, evaluated whenever an application-level report is built. This
// is the extension point §6 asks for ("defining and extending EMBera
// observation functions"): probes are registered by assembly or framework
// code, keeping the functional body observation-free.
func (c *Component) RegisterProbe(name string, fn func() int64) error {
	if name == "" || fn == nil {
		return fmt.Errorf("core: probe needs a name and a function")
	}
	if c.probes == nil {
		c.probes = make(map[string]func() int64)
	}
	if _, dup := c.probes[name]; dup {
		return fmt.Errorf("core: %s already has probe %q", c.name, name)
	}
	c.probes[name] = fn
	c.probeOrder = append(c.probeOrder, name)
	return nil
}

// ProvidedNames returns the provided interface names in declaration order.
func (c *Component) ProvidedNames() []string {
	var names []string
	for _, pi := range c.providedList {
		names = append(names, pi.name)
	}
	return names
}

// RequiredNames returns the required interface names in declaration order.
func (c *Component) RequiredNames() []string {
	return append([]string(nil), c.requiredOrder...)
}

// ProvidedBufBytes returns the configured buffer size of a provided
// interface (after Start, the actual mailbox capacity).
func (c *Component) ProvidedBufBytes(name string) int64 {
	pi, ok := c.provided[name]
	if !ok {
		return 0
	}
	if mb := pi.box(); mb != nil {
		return mb.BufBytes()
	}
	return pi.bufBytes
}

// run is the framework wrapper around the body: life-cycle bookkeeping and
// OS-level timestamps live here, not in application code.
func (c *Component) run(f Flow) {
	c.state.Store(int32(StateStarted))
	c.app.emit(Event{TimeUS: c.app.binding.NowUS(c), Kind: EvStart, Component: c.name})

	// The cleanup runs on normal return AND when the flow is forcibly
	// terminated (App.Terminate unwinds the body with a panic the platform
	// layer recognizes): either way the component reaches StateDone and
	// releases its producer references, so downstream mailboxes close and
	// the rest of the application can drain.
	defer func() {
		r := recover()
		end := c.app.binding.NowUS(c)
		c.state.Store(int32(StateDone))
		c.app.emit(Event{TimeUS: end, Kind: EvStop, Component: c.name})
		var remote []Transport
		c.app.connMu.Lock()
		for _, name := range c.requiredOrder {
			ri := c.required[name]
			if ri.transport != nil {
				// Remote consumer: the producer-release travels over the
				// transport (outside connMu — it may write to a socket);
				// the local sender count for this edge is released by the
				// consumer's owning process.
				remote = append(remote, ri.transport)
				continue
			}
			t := ri.target.Load()
			if t == nil {
				continue
			}
			t.senders--
			if t.senders == 0 {
				t.closed = true
				if mb := t.box(); mb != nil {
					mb.Close()
				}
			}
		}
		c.app.connMu.Unlock()
		for _, t := range remote {
			t.CloseProducer()
		}
		c.app.finished()
		if r != nil {
			panic(r)
		}
	}()
	c.body(&Ctx{c: c, f: f})
}

// Terminate forcibly stops a running component — the "termination" control
// operation of §3.1. The component transitions to done, its producer
// references are released (downstream mailboxes close once their last
// producer is gone) and its observation interface keeps answering with the
// final statistics. Terminating a finished component is a no-op.
func (a *App) Terminate(c *Component) error {
	if !a.started.Load() {
		return fmt.Errorf("core: app %q not started", a.Name)
	}
	if c.State() == StateDone {
		return nil
	}
	a.binding.Kill(c)
	return nil
}

// ProvidedIface is a provided interface: a named mailbox receiving messages.
// The mailbox reference is published atomically: App.Start materializes it
// while, on platforms with real concurrency, monitor samplers started ahead
// of the application may already be walking the interface lists.
type ProvidedIface struct {
	comp     *Component
	name     string
	bufBytes int64
	mb       atomic.Pointer[Mailbox]
	conns    int // connections established at assembly
	senders  int // producers still running
	// closed records that the mailbox was closed because its last producer
	// left (guarded by connMu, like the counts). Rewires consult it so a
	// dead mailbox is never installed as a send target.
	closed bool
	// recv caches the interface's receive counters in the component's
	// stats, resolved on its first receive. Only the component's own flow
	// touches it.
	recv *ifaceCounters
}

// box returns the materialized mailbox, or nil before App.Start.
func (pi *ProvidedIface) box() Mailbox {
	if p := pi.mb.Load(); p != nil {
		return *p
	}
	return nil
}

// setBox publishes the mailbox.
func (pi *ProvidedIface) setBox(m Mailbox) { pi.mb.Store(&m) }

// RequiredIface is a required interface: "a pointer towards a provided
// interface"; nil until connected. The pointer is atomic so the send hot
// path can read it without contending on the app-wide connection lock: a
// send racing a Reconnect sees either the old or the new target, never a
// torn state. The reference counts (conns, senders) stay under connMu —
// they are only touched at assembly, reconnection and termination.
type RequiredIface struct {
	comp   *Component
	name   string
	target atomic.Pointer[ProvidedIface]

	// transport, when non-nil, carries sends to a consumer in another
	// process instead of the target's local mailbox. Written once by
	// BindTransport before Start; the spawn of the owning component's flow
	// orders that write before any read on the send path, so no atomic is
	// needed.
	transport Transport
	// send caches the interface's send counters in the component's stats,
	// resolved on its first send. Only the component's own flow touches
	// it.
	send *ifaceCounters
}

// Connected reports whether the interface has been wired to a target.
func (ri *RequiredIface) Connected() bool { return ri.target.Load() != nil }

// sortedKeys returns map keys in deterministic order (reports, listings).
func sortedKeys[M ~map[string]V, V any](m M) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
