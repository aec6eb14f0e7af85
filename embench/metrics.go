package main

import (
	"math"
	"os"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// workload is one named input set of the benchmark.
type workload struct {
	run func(b *bench) error
}

var workloads = map[string]workload{
	"sim-burst":     {run: runSimBurst},
	"cluster-mjpeg": {run: runClusterMJPEG},
	"serve-native":  {run: runServeNative},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// metricDef defines one reported metric. For per-layer metrics, moves names
// the end-to-end metric the layer should move and on the workloads it
// should move it on; a per-layer metric reads 0 on a workload whose path
// does not cross that layer.
type metricDef struct {
	name, unit, better string
	moves, on          string
}

// endToEnd are the metrics a user of embera sees, measured with tracing
// off. Every workload reports every one of them. The failed ÷ attempted
// operations of the result line are the error rate.
var endToEnd = []metricDef{
	{name: "units_per_s", unit: "units/s", better: "higher"},
	{name: "monitor_slowdown", unit: "ratio", better: "lower"},
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "peak_rss_mb", unit: "MB", better: "lower"},
}

// perLayer are the traced run's metrics.
var perLayer = []metricDef{
	{"exp.prepare_s", "s", "lower", "units_per_s", "cluster-mjpeg"},
	{"exp.run_s", "s", "lower", "units_per_s", "sim-burst, cluster-mjpeg, serve-native"},
	{"exp.finish_s", "s", "lower", "units_per_s", "cluster-mjpeg"},
	{"exp.bare_run_s", "s", "lower", "monitor_slowdown", "sim-burst, cluster-mjpeg, serve-native"},
	{"exp.generation_s", "s", "lower", "units_per_s", "serve-native"},
	{"core.msgs", "count", "higher", "none (normalises the others)", "all"},
	{"core.bytes", "bytes", "higher", "none (normalises the others)", "all"},
	{"sim.makespan_us.smp", "us", "lower", "none (must not move under a speed-only change)", "sim-burst"},
	{"sim.makespan_us.sti7200", "us", "lower", "none (must not move under a speed-only change)", "sim-burst"},
	{"sim.ns_per_msg.smp", "ns", "lower", "units_per_s", "sim-burst"},
	{"sim.ns_per_msg.sti7200", "ns", "lower", "units_per_s", "sim-burst"},
	{"native.ns_per_msg", "ns", "lower", "units_per_s", "serve-native"},
	{"monitor.samples", "count", "higher", "error_rate", "all"},
	{"monitor.windows", "count", "higher", "error_rate", "all"},
	{"monitor.ring_dropped", "count", "lower", "error_rate", "all"},
	{"monitor.sink_errors", "count", "lower", "error_rate", "all"},
	{"monitor.ns_per_sample", "ns", "lower", "monitor_slowdown", "sim-burst, cluster-mjpeg, serve-native"},
	{"monitor.tick_ns", "ns", "lower", "monitor_slowdown", "sim-burst"},
	{"monitor.fold_ns", "ns", "lower", "monitor_slowdown", "sim-burst"},
	{"monitor.residual_pct", "%", "lower", "none (share of the monitor cost left unattributed)", "sim-burst"},
	{"trace.events", "count", "higher", "none (the cost of tracing)", "all"},
	{"trace.overhead_pct", "%", "lower", "none (the cost of tracing)", "all"},
	{"cluster.wire_frames", "count", "higher", "error_rate", "cluster-mjpeg"},
	{"cluster.lost_frames", "count", "lower", "error_rate", "cluster-mjpeg"},
	{"cluster.frames_per_s", "1/s", "higher", "units_per_s", "cluster-mjpeg"},
	{"wire.gob_encode_ns", "ns", "lower", "units_per_s", "cluster-mjpeg"},
	{"wire.gob_decode_ns", "ns", "lower", "units_per_s", "cluster-mjpeg"},
	{"wire.windows_encode_ns", "ns", "lower", "monitor_slowdown", "cluster-mjpeg"},
	{"serve.window_latency_p50_ms", "ms", "lower", "none (delivery latency, untraced generations)", "serve-native"},
	{"serve.window_latency_p99_ms", "ms", "lower", "none (delivery latency, untraced generations)", "serve-native"},
	{"serve.published", "count", "higher", "error_rate", "serve-native"},
	{"serve.dropped", "count", "lower", "error_rate", "serve-native"},
	{"serve.windows_timed", "count", "higher", "none (latency sample count)", "serve-native"},
	{"serve.publish_ns", "ns", "lower", "serve.window_latency_p50_ms, monitor_slowdown", "serve-native"},
	{"serve.metrics_ms", "ms", "lower", "serve.window_latency_p99_ms, units_per_s", "serve-native"},
	{"serve.control_ms", "ms", "lower", "serve.window_latency_p99_ms, units_per_s", "serve-native"},
	{"ctl.observe_ns", "ns", "lower", "serve.window_latency_p50_ms, monitor_slowdown", "serve-native"},
	{"ctl.fired", "count", "higher", "error_rate", "serve-native"},
	{"ctl.suppressed", "count", "higher", "error_rate", "serve-native"},
	{"ctl.firings_dropped", "count", "lower", "error_rate", "serve-native"},
}

// metricTable is the metric set one invocation prints.
func metricTable(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// median returns the middle value of xs (0 when empty).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// beginRSSRound starts measuring one round's resident-memory high-water
// mark: freed heap goes back to the operating system, and the kernel's mark
// (VmHWM) restarts from the current resident size. Cluster worker processes
// are separate processes and are not counted.
func beginRSSRound() {
	debug.FreeOSMemory()
	// Where procfs refuses the reset, the mark keeps the process-wide peak.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// endRSSRound reads the high-water mark since beginRSSRound, in MB.
func endRSSRound() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
}
