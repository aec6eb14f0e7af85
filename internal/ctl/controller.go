package ctl

import (
	"fmt"
	"sync"

	"embera/internal/monitor"
)

// Firing is one decided action: the policy that armed and the window that
// tripped it. The controller returns firings; it never executes them.
type Firing struct {
	Policy      Policy  `json:"policy"`
	Component   string  `json:"component"`
	Metric      string  `json:"metric"`
	Value       float64 `json:"value"`
	WindowEndUS int64   `json:"window_end_us"`
}

// PolicyStatus is the live state of one installed policy.
type PolicyStatus struct {
	Policy       Policy `json:"policy"`
	Streak       int    `json:"streak"`        // consecutive matching windows so far
	CooldownLeft int    `json:"cooldown_left"` // windows still to skip after the last firing
	Fired        uint64 `json:"fired"`
	Suppressed   uint64 `json:"suppressed"` // matches swallowed by cooldown
	ExecErrors   uint64 `json:"exec_errors"`
	LastFiredUS  int64  `json:"last_fired_us"`
}

// policyState pairs a policy with its hysteresis state.
type policyState struct {
	p            Policy
	streak       int
	cooldownLeft int
	fired        uint64
	suppressed   uint64
	execErrors   uint64
	lastFiredUS  int64
}

// Controller evaluates installed policies against a stream of closed
// windows. Observe is pure decision-making — constant-time bookkeeping
// under one mutex, no I/O, no blocking — so it is safe to call from the
// monitor's pump (a kernel callback on the simulators, a timer goroutine
// on native). Whatever executes the returned firings must do so
// elsewhere; executing them inline would deadlock a simulated pump.
type Controller struct {
	mu       sync.Mutex
	policies []*policyState
}

// MaxPolicies caps an installed rule set: every policy is evaluated on
// every closed window, so the cap bounds what one install can add to the
// monitor's sink path.
const MaxPolicies = 64

// NewController returns an empty controller; install rules via SetPolicies.
func NewController() *Controller { return &Controller{} }

// SetPolicies validates and installs the full rule set, replacing any
// previous one and resetting all hysteresis state. A set larger than
// MaxPolicies is rejected, and so are duplicate names, so status and error
// accounting stay unambiguous; a rejected set leaves the installed one in
// place.
func (c *Controller) SetPolicies(ps []Policy) error {
	if len(ps) > MaxPolicies {
		return fmt.Errorf("ctl: %d policies exceed the cap of %d", len(ps), MaxPolicies)
	}
	seen := make(map[string]bool, len(ps))
	states := make([]*policyState, 0, len(ps))
	for _, p := range ps {
		if err := p.Validate(); err != nil {
			return err
		}
		if seen[p.Name] {
			return fmt.Errorf("ctl: duplicate policy name %q", p.Name)
		}
		seen[p.Name] = true
		states = append(states, &policyState{p: p})
	}
	c.mu.Lock()
	c.policies = states
	c.mu.Unlock()
	return nil
}

// Policies returns the installed rule set.
func (c *Controller) Policies() []Policy {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Policy, len(c.policies))
	for i, st := range c.policies {
		out[i] = st.p
	}
	return out
}

// Status returns the installed policies with their live hysteresis state
// and counters.
func (c *Controller) Status() []PolicyStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]PolicyStatus, len(c.policies))
	for i, st := range c.policies {
		out[i] = PolicyStatus{
			Policy: st.p, Streak: st.streak, CooldownLeft: st.cooldownLeft,
			Fired: st.fired, Suppressed: st.suppressed,
			ExecErrors: st.execErrors, LastFiredUS: st.lastFiredUS,
		}
	}
	return out
}

// Observe folds one closed window into every policy watching its component
// and returns the actions that fired. Hysteresis: a matching window grows
// the streak, a miss resets it; the rule fires when the streak reaches
// HoldWindows (minimum 1) and then ignores the component's next
// CooldownWindows windows — matches swallowed there count as suppressed.
func (c *Controller) Observe(rec monitor.WindowRecord) []Firing {
	c.mu.Lock()
	defer c.mu.Unlock()
	var fs []Firing
	for _, st := range c.policies {
		if st.p.Component != rec.Component {
			continue
		}
		v, ok := metricOf(rec, st.p.Metric)
		if !ok {
			continue
		}
		match := compare(v, st.p.Op, st.p.Threshold)
		if st.cooldownLeft > 0 {
			st.cooldownLeft--
			if match {
				st.suppressed++
			}
			continue
		}
		if !match {
			st.streak = 0
			continue
		}
		st.streak++
		hold := st.p.HoldWindows
		if hold < 1 {
			hold = 1
		}
		if st.streak < hold {
			continue
		}
		st.streak = 0
		st.cooldownLeft = st.p.CooldownWindows
		st.fired++
		st.lastFiredUS = rec.EndUS
		fs = append(fs, Firing{
			Policy: st.p, Component: rec.Component,
			Metric: st.p.Metric, Value: v, WindowEndUS: rec.EndUS,
		})
	}
	return fs
}

// NoteError counts one executor failure against the named policy, so
// status and self-metrics show rules whose actions keep bouncing.
func (c *Controller) NoteError(policyName string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, st := range c.policies {
		if st.p.Name == policyName {
			st.execErrors++
			return
		}
	}
}

// Counters sums fired / suppressed / executor-error counts across all
// installed policies — the embera_ctl_* self-metric totals.
func (c *Controller) Counters() (fired, suppressed, execErrors uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, st := range c.policies {
		fired += st.fired
		suppressed += st.suppressed
		execErrors += st.execErrors
	}
	return
}
