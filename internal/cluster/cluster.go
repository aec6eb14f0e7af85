// Package cluster shards one EMBera assembly across OS processes: the
// fourth registered platform. A coordinator process builds the full
// assembly, partitions its components over worker processes by a
// deterministic placement function, and re-execs the running binary once
// per shard with the -cluster-worker flag. Every process builds the same
// assembly from the same workload description; each one spawns only the
// components its shard owns and marks the rest external. Cross-shard
// connections run over wire transports (internal/wire) on links between
// workers: the coordinator makes one unix socket pair per pair of shards
// and hands its two ends to the two workers at spawn, so a data or
// edge-close frame crosses one socket, from the producing worker straight
// to the consuming one. Same-shard connections keep the native binding's
// in-process mailboxes and their zero-alloc hot path.
//
// The coordinator keeps supervision and observation. Worker monitors
// sample only their local components and stream closed windows back over
// each worker's control connection, where the coordinator's monitor
// ingests them into the single window stream embera-serve brokers;
// end-of-run observation reports ride back the same way and answer the
// coordinator's observer queries verbatim. So does each worker's ledger of
// the cross-shard edges it touches — frames written and lost by their
// producers, frames read by their consumers — which a clean run must
// balance edge by edge.
package cluster

import (
	"fmt"
	"hash/fnv"

	"embera/internal/core"
)

// ConfigEnv names the environment variable carrying the worker config file
// path. Its presence (with the -cluster-worker argv marker) is what turns a
// re-exec of the binary into a shard worker.
const ConfigEnv = "EMBERA_CLUSTER_CONFIG"

// WorkersEnv optionally overrides the worker-process count (default 2).
const WorkersEnv = "EMBERA_CLUSTER_WORKERS"

// ShardOf is the deterministic placement function: FNV-1a of the component
// name modulo the shard count. Every process computes it independently and
// identically — placement needs no negotiation and no wire traffic.
func ShardOf(name string, shards int) int {
	if shards <= 1 {
		return 0
	}
	h := fnv.New32a()
	h.Write([]byte(name))
	return int(h.Sum32() % uint32(shards))
}

// Instance is the workload-instance surface the cluster needs, structurally
// identical to platform.Instance (the platform package injects instances
// through SetBuilder; cluster cannot import platform without a cycle).
type Instance interface {
	Units() int
	Checksum() uint64
	Check() error
	Summary() string
}

// StreamCarrier is implemented by workload instances built from an input
// stream, as the MJPEG decoder's is. When a run names no stream (only a
// scale), Distribute ships the stream the coordinator's instance was built
// from, so every worker rebuilds the assembly from those bytes instead of
// synthesizing and encoding the whole input once more.
type StreamCarrier interface {
	Stream() []byte
}

// ShardMerger is implemented by workload instances that can fold another
// shard's partial results into their own counters. The coordinator calls it
// from a single orchestrator goroutine, once per worker report.
type ShardMerger interface {
	MergeShard(units int, checksum uint64)
}

// BuildFunc rebuilds a registry workload's assembly onto app. Workers use
// it to reconstruct — deterministically — the exact assembly the
// coordinator built.
type BuildFunc func(app *core.App, workload string, scale, messageBytes int, stream []byte) (Instance, error)

var buildFn BuildFunc

// SetBuilder injects the workload builder. The platform package calls it at
// init so worker processes resolve workloads from the same registry the
// coordinator used.
func SetBuilder(fn BuildFunc) { buildFn = fn }

// edge is one assembly connection, identified by its enumeration index over
// components in creation order and required interfaces in declaration
// order — the same table in every process that builds the same assembly.
type edge struct {
	id        int
	from, to  *core.Component
	fromIface string
	toIface   string
}

// String names the edge in errors: its index and both endpoints.
func (e edge) String() string {
	return fmt.Sprintf("edge %d %s.%s -> %s.%s", e.id, e.from.Name(), e.fromIface, e.to.Name(), e.toIface)
}

func edgeTable(app *core.App) []edge {
	var out []edge
	for _, c := range app.Components() {
		for _, cn := range c.Connections() {
			to, _ := app.Component(cn.To)
			out = append(out, edge{
				id: len(out), from: c, to: to,
				fromIface: cn.FromIface, toIface: cn.ToIface,
			})
		}
	}
	return out
}

// stubFlow is the flow identity message injection runs under: it is not a
// component flow, so mailbox waits are uninterruptible, and it never
// computes or sleeps.
type stubFlow struct{}

func (stubFlow) Compute(int64) {}
func (stubFlow) SleepUS(int64) {}
