package serve

import (
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricWriter accumulates one Prometheus text exposition. Hand-rolled on
// the stdlib — the repository takes no dependencies — and covering just
// what the scrape needs: HELP/TYPE headers, label escaping, gauges and
// counters.
type metricWriter struct {
	b strings.Builder
}

func (mw *metricWriter) header(name, help, typ string) {
	fmt.Fprintf(&mw.b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// labelEscaper escapes a label value per the exposition format: backslash,
// newline and double quote, each as a backslash sequence.
var labelEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)

// labels renders name/value pairs as a label set, each value escaped once
// and quoted.
func labels(kv ...string) string {
	if len(kv) == 0 {
		return ""
	}
	parts := make([]string, 0, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		parts = append(parts, kv[i]+`="`+labelEscaper.Replace(kv[i+1])+`"`)
	}
	return "{" + strings.Join(parts, ",") + "}"
}

func (mw *metricWriter) sample(name, labelSet string, v float64) {
	fmt.Fprintf(&mw.b, "%s%s %g\n", name, labelSet, v)
}

// handleMetrics renders the Prometheus exposition: per-assembly run and
// pipeline counters, the latest window aggregates per component as gauges,
// and the service's self-metrics — broker and subscriber accounting plus
// goroutine/heap gauges — so the observation service's own overhead and
// loss are as visible as the observed application's.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	mw := &metricWriter{}

	// Service self-metrics.
	mw.header("embera_serve_uptime_seconds", "Seconds since the server started.", "gauge")
	mw.sample("embera_serve_uptime_seconds", "", time.Since(s.start).Seconds())
	mw.header("embera_serve_goroutines", "Live goroutines in the serving process.", "gauge")
	mw.sample("embera_serve_goroutines", "", float64(runtime.NumGoroutine()))
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mw.header("embera_serve_heap_alloc_bytes", "Live heap bytes of the serving process.", "gauge")
	mw.sample("embera_serve_heap_alloc_bytes", "", float64(ms.HeapAlloc))
	mw.header("embera_serve_heap_sys_bytes", "Heap bytes obtained from the OS.", "gauge")
	mw.sample("embera_serve_heap_sys_bytes", "", float64(ms.HeapSys))

	// Broker accounting: the service's own bounded-loss contract.
	b := s.broker
	mw.header("embera_serve_subscribers", "Currently connected window subscribers.", "gauge")
	mw.sample("embera_serve_subscribers", "", float64(b.Subscribers()))
	mw.header("embera_serve_events_published_total", "Window events offered to the broker.", "counter")
	mw.sample("embera_serve_events_published_total", "", float64(b.Published()))
	mw.header("embera_serve_subscriber_dropped_aggregate_total",
		"Events shed across all subscribers, past and present.", "counter")
	mw.sample("embera_serve_subscriber_dropped_aggregate_total", "", float64(b.Dropped()))

	subs := b.SubscriberSnapshots()
	sort.Slice(subs, func(i, j int) bool { return subs[i].ID < subs[j].ID })
	mw.header("embera_serve_subscriber_matched_total", "Events matching the subscriber's filter.", "counter")
	for _, ss := range subs {
		mw.sample("embera_serve_subscriber_matched_total",
			labels("subscriber", fmt.Sprint(ss.ID), "filter", ss.Filter), float64(ss.Matched))
	}
	mw.header("embera_serve_subscriber_dropped_total",
		"Matching events shed because the subscriber's queue was full.", "counter")
	for _, ss := range subs {
		mw.sample("embera_serve_subscriber_dropped_total",
			labels("subscriber", fmt.Sprint(ss.ID), "filter", ss.Filter), float64(ss.Dropped))
	}

	// Per-assembly run and observation-pipeline counters.
	assemblies := s.Assemblies()
	mw.header("embera_serve_assembly_running", "1 while a generation is executing.", "gauge")
	mw.header("embera_serve_assembly_paused", "1 while sampling is paused.", "gauge")
	mw.header("embera_serve_generations_total", "Workload generations launched.", "counter")
	mw.header("embera_serve_units_total", "Workload units completed across generations.", "counter")
	mw.header("embera_serve_windows_total", "Observation windows published.", "counter")
	mw.header("embera_serve_samples_total", "Observation samples accepted by the ring.", "counter")
	mw.header("embera_serve_ring_dropped_total", "Observation samples shed by the ring.", "counter")
	mw.header("embera_serve_sink_errors_total", "Window writes rejected by a sink.", "counter")
	mw.header("embera_serve_monitor_period_us",
		"Configured sampling period (µs) per observation level.", "gauge")
	mw.header("embera_serve_monitor_effective_period_us",
		"Sampling period (µs) each sampler is actually running at: above the configured "+
			"period when the adaptive overhead controller has backed it off under load.", "gauge")
	mw.header("embera_serve_monitor_overhead_budget_pct",
		"Configured adaptive sampling budget (percent of host time per sampler; 0 = off).", "gauge")
	mw.header("embera_ctl_policies", "Feedback policies installed on the assembly.", "gauge")
	mw.header("embera_ctl_actions_taken_total", "Policy actions fired by the feedback controller.", "counter")
	mw.header("embera_ctl_actions_suppressed_total", "Policy matches swallowed by cooldown hysteresis.", "counter")
	mw.header("embera_ctl_action_errors_total", "Fired actions the executor failed to apply.", "counter")
	mw.header("embera_ctl_firings_dropped_total", "Firings shed because the executor queue was full.", "counter")
	for _, as := range assemblies {
		snap := as.Snapshot()
		l := labels("assembly", snap.ID, "platform", snap.Platform, "workload", snap.Workload)
		bool01 := func(b bool) float64 {
			if b {
				return 1
			}
			return 0
		}
		mw.sample("embera_serve_assembly_running", l, bool01(snap.Running))
		mw.sample("embera_serve_assembly_paused", l, bool01(snap.Paused))
		mw.sample("embera_serve_generations_total", l, float64(snap.Generations))
		mw.sample("embera_serve_units_total", l, float64(snap.Units))
		mw.sample("embera_serve_windows_total", l, float64(snap.Windows))
		mw.sample("embera_serve_samples_total", l, float64(snap.Samples))
		mw.sample("embera_serve_ring_dropped_total", l, float64(snap.RingDropped))
		mw.sample("embera_serve_sink_errors_total", l, float64(snap.SinkErrors))
		for _, lv := range snap.Levels {
			mw.sample("embera_serve_monitor_period_us",
				labels("assembly", snap.ID, "level", lv.Level), float64(lv.PeriodUS))
		}
		for _, lv := range snap.EffectiveLevels {
			mw.sample("embera_serve_monitor_effective_period_us",
				labels("assembly", snap.ID, "level", lv.Level), float64(lv.PeriodUS))
		}
		mw.sample("embera_serve_monitor_overhead_budget_pct", l, snap.OverheadBudgetPct)
		fired, suppressed, execErrs := as.Ctl().Counters()
		mw.sample("embera_ctl_policies", l, float64(len(as.Ctl().Policies())))
		mw.sample("embera_ctl_actions_taken_total", l, float64(fired))
		mw.sample("embera_ctl_actions_suppressed_total", l, float64(suppressed))
		mw.sample("embera_ctl_action_errors_total", l, float64(execErrs))
		mw.sample("embera_ctl_firings_dropped_total", l, float64(as.FiringsDropped()))
	}

	// Latest window aggregates per component: the paper's observation
	// levels as scrapable gauges — operation rates, percentile latencies
	// and mailbox fill from the most recent closed window.
	type g struct{ name, help string }
	gauges := []g{
		{"embera_window_send_rate", "Send operations per second in the latest window."},
		{"embera_window_recv_rate", "Receive operations per second in the latest window."},
		{"embera_window_latency_p50_us", "p50 send-receive latency (µs) in the latest window."},
		{"embera_window_latency_p95_us", "p95 send-receive latency (µs) in the latest window."},
		{"embera_window_latency_p99_us", "p99 send-receive latency (µs) in the latest window."},
		{"embera_window_depth_high", "Mailbox-depth high-water mark in the latest window."},
		{"embera_window_depth_p99", "p99 mailbox depth in the latest window."},
		{"embera_window_mem_high_bytes", "Memory-occupation high-water mark in the latest window."},
	}
	for _, gg := range gauges {
		mw.header(gg.name, gg.help, "gauge")
	}
	for _, as := range assemblies {
		recs := as.LastWindows()
		sort.Slice(recs, func(i, j int) bool { return recs[i].Component < recs[j].Component })
		for _, rec := range recs {
			l := labels("assembly", as.ID(), "component", rec.Component)
			mw.sample("embera_window_send_rate", l, rec.SendRate)
			mw.sample("embera_window_recv_rate", l, rec.RecvRate)
			mw.sample("embera_window_latency_p50_us", l, float64(rec.LatencyP50US))
			mw.sample("embera_window_latency_p95_us", l, float64(rec.LatencyP95US))
			mw.sample("embera_window_latency_p99_us", l, float64(rec.LatencyP99US))
			mw.sample("embera_window_depth_high", l, float64(rec.DepthHigh))
			mw.sample("embera_window_depth_p99", l, float64(rec.DepthP99))
			mw.sample("embera_window_mem_high_bytes", l, float64(rec.MemHighBytes))
		}
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte(mw.b.String()))
}
