package burstwl

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync/atomic"

	"embera/internal/core"
	"embera/internal/platform"
)

func init() {
	platform.RegisterWorkloadFamily(platform.WorkloadFamily{
		Prefix:      Family,
		Placeholder: Family + ":<seed|key=val,...>",
		Describe:    "open-loop bursty request/response workload (poisson/onoff arrivals, fan-out RPC; e.g. burst:7 or burst:rate=20000,mode=onoff)",
		Parse: func(arg string) (platform.Workload, error) {
			spec, err := ParseSpec(arg)
			if err != nil {
				return nil, err
			}
			return &Workload{arg: arg, spec: spec}, nil
		},
	})
}

// Workload adapts one parsed burst spec to platform.Workload.
type Workload struct {
	arg  string
	spec *Spec
}

// New returns the fully seeded workload for one seed.
func New(seed int64) *Workload {
	return &Workload{arg: fmt.Sprintf("%d", seed), spec: NewSpec(seed)}
}

// Name implements platform.Workload. The original family argument is kept
// verbatim so cluster workers re-parse the identical spec from the name.
func (w *Workload) Name() string { return Family + ":" + w.arg }

// Describe implements platform.Workload.
func (w *Workload) Describe() string { return w.spec.String() }

// specFor applies the harness option overrides: Scale replaces each
// client's request count, MessageBytes the request/response wire size.
// Inbox capacities are factors of Bytes, so overrides can never produce a
// message its target mailbox cannot hold.
func (w *Workload) specFor(opts platform.Options) *Spec {
	spec := *w.spec
	if opts.Scale > 0 {
		spec.Reqs = opts.Scale
	}
	if opts.MessageBytes > 0 {
		spec.Bytes = opts.MessageBytes
	}
	return &spec
}

// clientCost is the cycles a client charges to assemble one request.
const clientCost = 200

// Build implements platform.Workload: clients c0..cN, servers s0..sM and
// the single collector col, with every client wired to every server (the
// schedule decides which edges actually carry traffic) and every server
// wired into the collector's deliberately tight inbox.
func (w *Workload) Build(a *core.App, p platform.Platform, opts platform.Options) (platform.Instance, error) {
	spec := w.specFor(opts)
	inst := newInstance(spec)

	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%s", p.Name(), w.arg)
	prng := rand.New(rand.NewSource(int64(h.Sum64() >> 1)))
	locations := p.Topology().Locations
	place := func(c *core.Component) {
		if locations > 0 && prng.Intn(2) == 0 {
			c.Place(prng.Intn(locations))
		}
	}
	bufBytes := int64(spec.Cap) * int64(spec.Bytes)

	col, err := a.NewComponent("col", inst.collectorBody())
	if err != nil {
		return nil, err
	}
	place(col)
	if err := col.AddProvided("in", bufBytes); err != nil {
		return nil, err
	}
	if err := col.RegisterProbe("folded", func() int64 {
		return inst.received.Load()
	}); err != nil {
		return nil, err
	}

	servers := make([]*core.Component, spec.Servers)
	for s := 0; s < spec.Servers; s++ {
		c, err := a.NewComponent(fmt.Sprintf("s%d", s), inst.serverBody(s))
		if err != nil {
			return nil, err
		}
		place(c)
		if err := c.AddProvided("in", bufBytes); err != nil {
			return nil, err
		}
		if err := c.AddRequired("col"); err != nil {
			return nil, err
		}
		if err := a.Connect(c, "col", col, "in"); err != nil {
			return nil, err
		}
		servers[s] = c
	}
	for ci := 0; ci < spec.Clients; ci++ {
		c, err := a.NewComponent(fmt.Sprintf("c%d", ci), inst.clientBody(ci))
		if err != nil {
			return nil, err
		}
		place(c)
		for s, iface := range inst.srvIfaces {
			if err := c.AddRequired(iface); err != nil {
				return nil, err
			}
			if err := a.Connect(c, iface, servers[s], "in"); err != nil {
				return nil, err
			}
		}
	}
	return inst, nil
}

// instance tracks one assembled burst run. The counters are atomic: on
// the native platform the collector is a real goroutine, and probes and
// monitor samplers read mid-run.
type instance struct {
	spec     *Spec
	expUnits int
	expSum   uint64
	// srvIfaces names each client's required interface toward server s.
	srvIfaces []string

	received atomic.Int64
	checksum atomic.Uint64
}

func newInstance(spec *Spec) *instance {
	inst := &instance{spec: spec, srvIfaces: make([]string, spec.Servers)}
	inst.expUnits, inst.expSum = spec.Expected()
	for s := range inst.srvIfaces {
		inst.srvIfaces[s] = fmt.Sprintf("srv%d", s)
	}
	return inst
}

// clientBody replays client c's precomputed open-loop schedule: sleep the
// virtual-time gap, then fan the request out — never waiting on responses.
func (in *instance) clientBody(c int) core.Body {
	spec := in.spec
	sched := spec.ClientSchedule(c)
	return func(ctx *core.Ctx) {
		for q := 0; q < spec.Reqs; q++ {
			if gap := sched.GapsUS[q]; gap > 0 {
				ctx.SleepUS(gap)
			}
			ctx.Compute(clientCost)
			var req any = reqValue(spec.Seed, c, q) // boxed once for the fan-out
			for _, srv := range sched.Targets[q] {
				ctx.Send(in.srvIfaces[srv], req, spec.Bytes)
			}
		}
	}
}

// serverBody services requests in arrival order: charge the service cost,
// salt the value, forward into the collector.
func (in *instance) serverBody(s int) core.Body {
	cost, salt, bytes := in.spec.Cost, serverSalt(s), in.spec.Bytes
	return func(ctx *core.Ctx) {
		for {
			m, ok := ctx.Receive("in")
			if !ok {
				return
			}
			ctx.Compute(cost)
			ctx.Send("col", mix(m.Payload.(uint64), salt), bytes)
		}
	}
}

// collectorBody folds every response into the order-independent checksum.
func (in *instance) collectorBody() core.Body {
	cost := in.spec.Cost
	return func(ctx *core.Ctx) {
		for {
			m, ok := ctx.Receive("in")
			if !ok {
				return
			}
			ctx.Compute(cost)
			in.checksum.Add(mix(m.Payload.(uint64), collectorSalt))
			in.received.Add(1)
		}
	}
}

// Spec exposes the effective (override-adjusted) spec of this run.
func (in *instance) Spec() *Spec { return in.spec }

// FlowModel implements platform.FlowModeler: the per-edge send counts are
// fixed by the precomputed schedules. Every client→server edge is wired
// and listed even when the schedule never uses it (Ops 0).
func (in *instance) FlowModel() []platform.FlowEdge {
	toServer, toCollector := in.spec.EdgeOps()
	var edges []platform.FlowEdge
	for c := 0; c < in.spec.Clients; c++ {
		for s := 0; s < in.spec.Servers; s++ {
			edges = append(edges, platform.FlowEdge{
				From:  fmt.Sprintf("c%d", c),
				Iface: fmt.Sprintf("srv%d", s),
				To:    fmt.Sprintf("s%d", s),
				In:    "in",
				Ops:   toServer[c][s],
			})
		}
	}
	for s := 0; s < in.spec.Servers; s++ {
		edges = append(edges, platform.FlowEdge{
			From:  fmt.Sprintf("s%d", s),
			Iface: "col",
			To:    "col",
			In:    "in",
			Ops:   toCollector[s],
		})
	}
	return edges
}

// Units implements platform.Instance.
func (in *instance) Units() int { return int(in.received.Load()) }

// Checksum implements platform.Instance.
func (in *instance) Checksum() uint64 { return in.checksum.Load() }

// MergeShard folds another process's partial results into this instance's
// counters; the collector fold is additive and order-independent.
func (in *instance) MergeShard(units int, checksum uint64) {
	in.received.Add(int64(units))
	in.checksum.Add(checksum)
}

// Check implements platform.Instance against the closed-form model.
func (in *instance) Check() error {
	if got := in.Units(); got != in.expUnits {
		return fmt.Errorf("burstwl: collector folded %d responses, want %d (%s)",
			got, in.expUnits, in.spec)
	}
	if got := in.checksum.Load(); got != in.expSum {
		return fmt.Errorf("burstwl: checksum %016x, want %016x (%s)", got, in.expSum, in.spec)
	}
	return nil
}

// Summary implements platform.Instance.
func (in *instance) Summary() string {
	return fmt.Sprintf("folded %d/%d messages (checksum %016x) — %s",
		in.Units(), in.expUnits, in.checksum.Load(), in.spec)
}
