package platform

import (
	"runtime"

	"embera/internal/cluster"
	"embera/internal/core"
	"embera/internal/monitor"
	"embera/internal/sim"
)

// clusterPlatform shards one assembly across OS processes (internal/cluster):
// the registry's fourth platform and the first one whose mailboxes do not
// all share an address space. A coordinator re-execs the running binary once
// per shard; components partition by a deterministic name hash; cross-shard
// connections run over wire transports; observation windows and final
// reports stream back to the coordinator's monitor. Checksums still match
// the other three platforms bit for bit — timings are wall-clock and
// scheduling is real, so Deterministic reports false and harnesses skip
// fingerprint assertions, exactly as they do for native.
type clusterPlatform struct{}

func init() {
	Register(clusterPlatform{})
	// Workers rebuild the coordinator's assembly through the same registry:
	// the builder seam keeps the cluster package free of a platform import.
	cluster.SetBuilder(func(app *core.App, workload string, scale, messageBytes int, stream []byte) (cluster.Instance, error) {
		w, err := GetWorkload(workload)
		if err != nil {
			return nil, err
		}
		p, err := Get("cluster")
		if err != nil {
			return nil, err
		}
		return w.Build(app, p, Options{Scale: scale, Stream: stream, MessageBytes: messageBytes})
	})
}

func (clusterPlatform) Name() string { return "cluster" }

func (clusterPlatform) Describe() string {
	return "one assembly sharded across worker OS processes (2 by default), wire transports between shards, wall-clock time"
}

func (clusterPlatform) Topology() Topology {
	return Topology{Locations: runtime.NumCPU(), Host: -1}
}

func (clusterPlatform) Deterministic() bool { return false }

func (clusterPlatform) New(appName string) (Machine, *core.App) {
	m, app := cluster.New(appName, 0, runtime.NumCPU())
	return clusterMachine{m}, app
}

// clusterMachine adapts *cluster.Machine to the Machine interface and
// forwards the distribution seam the exp layer probes for structurally.
type clusterMachine struct{ m *cluster.Machine }

func (c clusterMachine) Run(horizonUS int64) error { return c.m.Run(horizonUS) }
func (c clusterMachine) NowUS() int64              { return c.m.NowUS() }
func (c clusterMachine) Kernel() *sim.Kernel       { return nil }

// Interrupt implements Interruptible: terminate broadcasts to every worker
// and the coordinator drains, so served generations and SIGTERM behave
// exactly as on the in-process platforms.
func (c clusterMachine) Interrupt() { c.m.Interrupt() }

// Distribute switches the machine into sharded mode after the workload has
// been built onto the app. The exp runner calls it (structurally) between
// Build and monitor creation.
func (c clusterMachine) Distribute(workload string, opts Options, inst Instance) error {
	return c.m.Distribute(workload, opts.Scale, opts.MessageBytes, opts.Stream, inst)
}

// TakeMonitor hands the coordinator the run's live monitor so worker
// windows are ingested centrally, and the config so every shard samples
// under the same policy.
func (c clusterMachine) TakeMonitor(mon *monitor.Monitor, cfg *monitor.Config) {
	c.m.AttachMonitor(mon, cfg)
}

// ShardOf exposes the placement function for per-shard conformance
// accounting.
func (c clusterMachine) ShardOf(name string) int { return c.m.ShardOf(name) }

// WireFrames exposes the coordinator's per-edge relay counters: frames
// counted on the wire for one cross-shard edge.
func (c clusterMachine) WireFrames(from, iface string) (uint64, bool) {
	return c.m.WireFrames(from, iface)
}

// LostFrames exposes the in-flight loss counter (nonzero only after a
// worker failure).
func (c clusterMachine) LostFrames() uint64 { return c.m.LostFrames() }

// RelayQueues exposes the depth and high-water of the coordinator's relay
// queue toward every worker shard.
func (c clusterMachine) RelayQueues() []cluster.RelayQueue { return c.m.RelayQueues() }

var _ Interruptible = clusterMachine{}
