// Package ctl closes the observe→act loop: a feedback controller that
// consumes the monitor's closed windows, evaluates declarative
// threshold/hysteresis policies against them, and requests actions on the
// existing control surface (reconnect, migrate, terminate, sampling-rate
// and window changes, pause/resume). The controller itself is pure — it
// only decides; an executor owned by the embedding service applies the
// firings — so policy evaluation can run inside the monitor's pump
// without ever blocking it.
//
// The package also houses the fuzzed migration scheduler the differential
// conformance battery uses to prove the reconfiguration edges safe: any
// schedule of same-target migrate/reconnect points must leave workload
// checksums and per-interface flow conservation intact.
package ctl

import (
	"fmt"

	"embera/internal/core"
	"embera/internal/monitor"
)

// Metric names a policy can watch, all taken from the flat WindowRecord
// schema the monitor exports.
const (
	MetricDepthHigh    = "depth_high"
	MetricSendRate     = "send_rate"
	MetricRecvRate     = "recv_rate"
	MetricLatencyP50US = "latency_p50_us"
	MetricLatencyP95US = "latency_p95_us"
	MetricLatencyP99US = "latency_p99_us"
)

// Action types a policy can request.
const (
	ActReconnect = "reconnect"
	ActMigrate   = "migrate"
	ActTerminate = "terminate"
	ActSetPeriod = "set-period"
	ActSetWindow = "set-window"
	ActPause     = "pause"
	ActResume    = "resume"
)

// Policy is one declarative observe→act rule: when Component's Metric
// compares true against Threshold for HoldWindows consecutive windows, the
// Action fires, then the rule sleeps for CooldownWindows windows of that
// component. Hold and cooldown are the hysteresis that keeps a noisy metric
// from flapping the assembly.
type Policy struct {
	Name      string  `json:"name"`
	Component string  `json:"component"`
	Metric    string  `json:"metric"`
	Op        string  `json:"op"` // ">", ">=", "<", "<="
	Threshold float64 `json:"threshold"`
	// HoldWindows is how many consecutive matching windows arm the rule
	// before it fires; 0 means 1 (fire on the first match).
	HoldWindows int `json:"hold_windows,omitempty"`
	// CooldownWindows is how many of the component's windows the rule
	// ignores after firing; matches swallowed there count as suppressed.
	CooldownWindows int    `json:"cooldown_windows,omitempty"`
	Action          Action `json:"action"`
}

// Action is the control operation a fired policy requests. The fields used
// depend on Type: reconnect/migrate take the edge coordinates, terminate a
// component name, set-period a level and period, set-window a window.
type Action struct {
	Type      string `json:"type"`
	From      string `json:"from,omitempty"`
	Required  string `json:"required,omitempty"`
	To        string `json:"to,omitempty"`
	Provided  string `json:"provided,omitempty"`
	Component string `json:"component,omitempty"`
	Level     string `json:"level,omitempty"`
	PeriodUS  int64  `json:"period_us,omitempty"`
	WindowUS  int64  `json:"window_us,omitempty"`
}

// Validate checks the policy is well-formed before it is installed, so a
// bad policy is a 400 at the door instead of a misfire at runtime.
func (p Policy) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("ctl: policy needs a name")
	}
	if p.Component == "" {
		return fmt.Errorf("ctl: policy %q needs a component", p.Name)
	}
	switch p.Metric {
	case MetricDepthHigh, MetricSendRate, MetricRecvRate,
		MetricLatencyP50US, MetricLatencyP95US, MetricLatencyP99US:
	default:
		return fmt.Errorf("ctl: policy %q: unknown metric %q", p.Name, p.Metric)
	}
	switch p.Op {
	case ">", ">=", "<", "<=":
	default:
		return fmt.Errorf("ctl: policy %q: unknown op %q", p.Name, p.Op)
	}
	if p.HoldWindows < 0 || p.CooldownWindows < 0 {
		return fmt.Errorf("ctl: policy %q: negative hold/cooldown", p.Name)
	}
	a := p.Action
	switch a.Type {
	case ActReconnect, ActMigrate:
		if a.From == "" || a.Required == "" || a.To == "" || a.Provided == "" {
			return fmt.Errorf("ctl: policy %q: %s needs from/required/to/provided", p.Name, a.Type)
		}
	case ActTerminate:
		if a.Component == "" {
			return fmt.Errorf("ctl: policy %q: terminate needs a component", p.Name)
		}
	case ActSetPeriod:
		if _, err := ParseLevel(a.Level); err != nil {
			return fmt.Errorf("ctl: policy %q: set-period: %w", p.Name, err)
		}
		if a.PeriodUS <= 0 {
			return fmt.Errorf("ctl: policy %q: set-period needs a positive period_us", p.Name)
		}
	case ActSetWindow:
		if a.WindowUS <= 0 {
			return fmt.Errorf("ctl: policy %q: set-window needs a positive window_us", p.Name)
		}
	case ActPause, ActResume:
	default:
		return fmt.Errorf("ctl: policy %q: unknown action type %q", p.Name, a.Type)
	}
	return nil
}

// ParseLevel maps an action's level name (os, middleware, application or
// all) to its observation level.
func ParseLevel(s string) (core.ObsLevel, error) {
	for _, l := range []core.ObsLevel{core.LevelOS, core.LevelMiddleware, core.LevelApplication, core.LevelAll} {
		if l.String() == s {
			return l, nil
		}
	}
	return 0, fmt.Errorf("unknown observation level %q (want os, middleware, application or all)", s)
}

// metricOf extracts the watched metric from one window record.
func metricOf(rec monitor.WindowRecord, metric string) (float64, bool) {
	switch metric {
	case MetricDepthHigh:
		return float64(rec.DepthHigh), true
	case MetricSendRate:
		return rec.SendRate, true
	case MetricRecvRate:
		return rec.RecvRate, true
	case MetricLatencyP50US:
		return float64(rec.LatencyP50US), true
	case MetricLatencyP95US:
		return float64(rec.LatencyP95US), true
	case MetricLatencyP99US:
		return float64(rec.LatencyP99US), true
	}
	return 0, false
}

// compare applies the policy operator.
func compare(v float64, op string, threshold float64) bool {
	switch op {
	case ">":
		return v > threshold
	case ">=":
		return v >= threshold
	case "<":
		return v < threshold
	case "<=":
		return v <= threshold
	}
	return false
}
