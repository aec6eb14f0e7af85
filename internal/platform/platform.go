// Package platform is the seam the paper's central claim rests on: one
// component model, many platforms, many applications. A Platform bundles
// everything the harness needs to run an EMBera application on a concrete
// (simulated) machine — kernel construction, the core.Binding, and the
// topology metadata placement decisions depend on. A Workload is the
// platform-independent counterpart: it assembles components onto a
// *core.App, and after the run self-checks its results.
//
// Both sides are registries. Adding a platform means implementing Platform
// and calling Register in an init function; adding a workload means
// implementing Workload and calling RegisterWorkload. Every binary,
// experiment and conformance battery then picks both by name, so a new
// platform or workload is an O(1) addition instead of an O(platforms ×
// workloads) copy-paste.
package platform

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"embera/internal/core"
	"embera/internal/sim"
)

// Topology is the placement metadata a workload may consult when deciding
// where components go. Locations are opaque integer slots fed to
// core.Component.Place: core indices on the SMP machine, CPU indices on the
// STi7200.
type Topology struct {
	// Locations is the number of placement slots (exclusive upper bound for
	// Place hints).
	Locations int
	// Host is the general-purpose/control processor's location, or -1 on
	// symmetric platforms where every location is equivalent.
	Host int
	// Accelerators lists the accelerator locations, outermost first; empty
	// on symmetric platforms.
	Accelerators []int
}

// Symmetric reports whether every location is equivalent (no host /
// accelerator split).
func (t Topology) Symmetric() bool { return t.Host < 0 && len(t.Accelerators) == 0 }

// Machine is one constructed instance of a platform hosting one
// application: the thing that owns the clock and drives execution to
// completion. On the simulated platforms it wraps a discrete-event kernel;
// on the native platform it supervises real goroutines against the wall
// clock. Harness code that works through Machine instead of *sim.Kernel
// runs unchanged on both kinds.
type Machine interface {
	// Run drives the started application until every component and every
	// driver flow has finished. horizonUS bounds the run in platform time —
	// virtual microseconds on simulated machines, wall-clock microseconds
	// on native ones; a run still incomplete at the horizon (or a detected
	// deadlock) is an error.
	Run(horizonUS int64) error
	// NowUS reads the machine's global clock in microseconds since
	// construction.
	NowUS() int64
	// Kernel exposes the discrete-event kernel backing a simulated
	// machine, or nil on platforms that execute in real time. Callers that
	// need it (kernel-level tracing, custom event scheduling) must check
	// for nil.
	Kernel() *sim.Kernel
}

// Interruptible is the optional long-running lifecycle hook: machines that
// can cut an in-flight Run short from another goroutine implement it.
// Interrupt asks the running application to wind down — on the native
// machine every component is terminated, so Run returns once the unwound
// goroutines and drivers drain — and must be safe to call from any
// goroutine, any number of times, including before Run. The simulated
// machines do not implement it: their kernel is single-threaded and a
// cross-thread poke would race it, so long-running front ends let a
// simulated generation run out (virtual-time runs finish at host speed)
// and stop between runs instead.
type Interruptible interface {
	Interrupt()
}

// Interrupt invokes m's Interruptible hook when the machine has one and
// reports whether it did — the seam embera-serve's stop/shutdown paths use
// without caring which binding they are holding.
func Interrupt(m Machine) bool {
	if i, ok := m.(Interruptible); ok {
		i.Interrupt()
		return true
	}
	return false
}

// Platform is one registered execution platform.
type Platform interface {
	// Name is the registry key ("smp", "sti7200", "native").
	Name() string
	// Describe is a one-line human description.
	Describe() string
	// Topology reports the placement metadata.
	Topology() Topology
	// Deterministic reports whether two identical runs produce
	// bit-identical timing observations. True for the virtual-time
	// simulators; false for wall-clock platforms, where harnesses must
	// only assert result checksums, never timing fingerprints.
	Deterministic() bool
	// New constructs a fresh machine and an application bound to this
	// platform. Every call is an independent machine.
	New(appName string) (Machine, *core.App)
}

// SimMachine adapts a discrete-event kernel to the Machine interface; the
// simulated platforms return it from New.
type SimMachine struct{ K *sim.Kernel }

// Run implements Machine via Kernel.RunUntil. A deadlock comes back as the
// kernel's *sim.DeadlockError, and a horizon that cuts components short is
// an error naming them. Either way the run is over once RunUntil returns:
// Kernel.Shutdown then unwinds every process still live, observation
// daemons included, so no goroutine outlives the run.
func (m SimMachine) Run(horizonUS int64) error {
	limit := sim.Time(sim.Duration(horizonUS) * sim.Microsecond)
	err := m.K.RunUntil(limit)
	if left := m.K.Unfinished(); err == nil && len(left) > 0 {
		err = fmt.Errorf("sim: run reached its %v horizon with %d process(es) still live: %v",
			sim.Duration(limit), len(left), left)
	}
	m.K.Shutdown()
	return err
}

// NowUS implements Machine.
func (m SimMachine) NowUS() int64 { return int64(m.K.Now()) / int64(sim.Microsecond) }

// Kernel implements Machine.
func (m SimMachine) Kernel() *sim.Kernel { return m.K }

// Options are the workload-independent assembly knobs the harness passes
// through to Workload.Build.
type Options struct {
	// Scale is the workload's primary size knob — frames to decode for the
	// MJPEG workload, messages to produce for the pipeline workload. 0
	// selects the workload's default.
	Scale int
	// Stream optionally provides raw input bytes for stream-driven
	// workloads (the MJPEG workload's concatenated-JPEG input); nil lets
	// the workload synthesize an input from Scale.
	Stream []byte
	// MessageBytes, when positive, overrides every message's modelled wire
	// size (the Figure 4 / Figure 8 style sweeps).
	MessageBytes int
}

// Workload assembles an application for any platform.
type Workload interface {
	// Name is the registry key ("mjpeg", "pipeline").
	Name() string
	// Describe is a one-line human description.
	Describe() string
	// Build assembles the workload's components onto a, consulting p's
	// topology for placement. The returned Instance tracks results so they
	// can be checked after the run.
	Build(a *core.App, p Platform, opts Options) (Instance, error)
}

// Instance is one assembled workload run: live result tracking plus the
// post-run self-check.
type Instance interface {
	// Units reports the work units completed so far (frames decoded,
	// messages consumed).
	Units() int
	// Checksum digests the computed results in an order- and
	// platform-independent way: two correct runs of the same workload at
	// the same scale produce the same checksum on every platform.
	Checksum() uint64
	// Check verifies the results after the application quiesced.
	Check() error
	// Summary is a one-line human description of the outcome.
	Summary() string
}

// WorkloadFamily is a parameterized workload generator registered under a
// prefix: a name of the form "<prefix>:<arg>" resolves by handing arg to
// Parse. The canonical example is the fuzz family "rand:<seed>", which
// turns every registry consumer — binaries, experiment harnesses,
// RunMatrix sweeps, conformance batteries — into a driver for generated
// workloads without any of them knowing the family exists.
type WorkloadFamily struct {
	// Prefix is the registry key before the colon ("rand").
	Prefix string
	// Placeholder is the listing form shown next to concrete workload
	// names ("rand:<seed>").
	Placeholder string
	// Describe is a one-line human description.
	Describe string
	// Parse builds a fresh Workload from the text after the colon. A
	// malformed argument returns an error; the registry wraps it in the
	// uniform unknown-workload error so every front-end rejects it with
	// the same exit-2 registry listing as a typo'd concrete name.
	Parse func(arg string) (Workload, error)
}

// The registries are mutex-guarded: most registration happens in package
// init functions, but nothing stops a test or a plugin-style extension from
// registering (or resolving) concurrently, and an unsynchronized map write
// is a crash under the race detector long before it is a logic bug.
var (
	regMu     sync.RWMutex
	platforms = map[string]Platform{}
	workloads = map[string]func() Workload{}
	families  = map[string]WorkloadFamily{}
)

// Register adds a platform to the registry. Duplicate names panic: they are
// programming errors in init wiring, and overwriting silently would let two
// packages fight over a name with import-order-dependent results.
func Register(p Platform) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := platforms[p.Name()]; dup {
		panic(fmt.Sprintf("platform: duplicate platform %q", p.Name()))
	}
	platforms[p.Name()] = p
}

// RegisterWorkload adds a workload factory to the registry. The factory
// returns a fresh Workload with default configuration on every call.
// Duplicate names panic, as in Register. Names containing a colon are
// rejected (that syntax is reserved for workload families), and a name
// colliding with a registered family prefix panics regardless of which
// side registered first, so resolution can never depend on init order.
func RegisterWorkload(name string, f func() Workload) {
	if strings.Contains(name, ":") {
		panic(fmt.Sprintf("platform: workload name %q contains ':' (reserved for families)", name))
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := workloads[name]; dup {
		panic(fmt.Sprintf("platform: duplicate workload %q", name))
	}
	if _, dup := families[name]; dup {
		panic(fmt.Sprintf("platform: workload %q collides with a workload family prefix", name))
	}
	workloads[name] = f
}

// RegisterWorkloadFamily adds a parameterized workload family. Duplicate
// prefixes — including a prefix colliding with a concrete workload name —
// panic, as in RegisterWorkload.
func RegisterWorkloadFamily(f WorkloadFamily) {
	if f.Prefix == "" || strings.Contains(f.Prefix, ":") || f.Parse == nil {
		panic(fmt.Sprintf("platform: workload family needs a colon-free prefix and a parser, got %q", f.Prefix))
	}
	if f.Placeholder == "" {
		f.Placeholder = f.Prefix + ":<arg>"
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := families[f.Prefix]; dup {
		panic(fmt.Sprintf("platform: duplicate workload family %q", f.Prefix))
	}
	if _, dup := workloads[f.Prefix]; dup {
		panic(fmt.Sprintf("platform: workload family %q collides with a workload name", f.Prefix))
	}
	families[f.Prefix] = f
}

// Get resolves a platform by name. The error for an unknown name lists
// every registered platform.
func Get(name string) (Platform, error) {
	regMu.RLock()
	p, ok := platforms[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("platform: unknown platform %q (registered: %s)",
			name, strings.Join(Names(), ", "))
	}
	return p, nil
}

// MustGet is Get that panics on error, for static wiring.
func MustGet(name string) Platform {
	p, err := Get(name)
	if err != nil {
		panic(err)
	}
	return p
}

// Names returns the registered platform names, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(platforms))
	for n := range platforms {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// GetWorkload resolves a workload by name, returning a fresh instance.
// Names containing a colon resolve through the workload-family registry:
// "rand:42" hands "42" to the "rand" family's parser. Unknown names — and
// family arguments the parser rejects — return the uniform registry error
// listing every registered workload and family, so a malformed "rand:x" is
// refused exactly like a typo'd concrete name.
func GetWorkload(name string) (Workload, error) {
	regMu.RLock()
	f, ok := workloads[name]
	var fam WorkloadFamily
	var famOK bool
	if !ok {
		if i := strings.IndexByte(name, ':'); i >= 0 {
			fam, famOK = families[name[:i]]
		}
	}
	regMu.RUnlock()
	if ok {
		return f(), nil
	}
	if famOK {
		w, err := fam.Parse(name[strings.IndexByte(name, ':')+1:])
		if err != nil {
			return nil, fmt.Errorf("platform: unknown workload %q (registered: %s): %w",
				name, strings.Join(WorkloadListing(), ", "), err)
		}
		return w, nil
	}
	return nil, fmt.Errorf("platform: unknown workload %q (registered: %s)",
		name, strings.Join(WorkloadListing(), ", "))
}

// MustGetWorkload is GetWorkload that panics on error.
func MustGetWorkload(name string) Workload {
	w, err := GetWorkload(name)
	if err != nil {
		panic(err)
	}
	return w
}

// WorkloadNames returns the registered concrete workload names, sorted.
// Families are excluded: enumerating callers (RunMatrix over "all
// workloads", the conformance matrix) cannot run a family without an
// argument. Use WorkloadListing for human-facing listings.
func WorkloadNames() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// WorkloadFamilies returns the registered families sorted by prefix.
func WorkloadFamilies() []WorkloadFamily {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]WorkloadFamily, 0, len(families))
	for _, f := range families {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Prefix < out[j].Prefix })
	return out
}

// WorkloadListing returns the concrete workload names plus each family's
// placeholder form ("rand:<seed>"), sorted — the human-facing listing
// usage errors and the binaries' -list output print. (-list-workloads
// deliberately sticks to WorkloadNames: its output is machine-enumerable
// and gets fed back into -workload, which a placeholder would break.)
func WorkloadListing() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(workloads)+len(families))
	for n := range workloads {
		names = append(names, n)
	}
	for _, f := range families {
		names = append(names, f.Placeholder)
	}
	sort.Strings(names)
	return names
}
