// feedback closes the observe→act loop end to end: a declarative policy
// watches the monitor's windows and a controller rebinds a hot component's
// work to an idle spare — no application code involved in the decision.
//
// A dispatcher feeds a deliberately slow worker while a fast spare sits
// idle. The streaming monitor's windows show the worker's mailbox depth
// high-water climbing; a depth_high policy (threshold 4, one-window hold)
// fires and its migrate action rewires the dispatcher onto the spare,
// moving the worker's queued backlog across in the same step. Every item
// still arrives at the collector exactly once — the migration is invisible
// to application semantics, which is the invariant the differential
// conformance battery (`embera-bench -exp DIFF -migrate`) proves for
// random schedules.
//
// Run: go run ./examples/feedback
package main

import (
	"fmt"
	"log"
	"sync"

	"embera/internal/core"
	"embera/internal/ctl"
	"embera/internal/monitor"
	"embera/internal/platform"
)

const (
	items     = 300
	itemBytes = 1024
	slowCost  = 2_000_000 // cycles per item on the hot worker
	fastCost  = 100_000   // cycles per item on the spare
	sendPace  = 20_000    // dispatcher cycles between sends: far below slowCost
)

func main() {
	m, a := platform.MustGet("smp").New("feedback")

	dispatcher := a.MustNewComponent("dispatcher", func(ctx *core.Ctx) {
		for i := 0; i < items; i++ {
			ctx.Compute(sendPace)
			if !ctx.Send("out", i, itemBytes) {
				return
			}
		}
	}).MustAddRequired("out")

	workerBody := func(cost int64) core.Body {
		return func(ctx *core.Ctx) {
			for {
				if _, ok := ctx.Receive("in"); !ok {
					return
				}
				ctx.Compute(cost)
				ctx.Send("done", nil, 256)
			}
		}
	}
	worker := a.MustNewComponent("worker", workerBody(slowCost)).
		MustAddProvided("in", 4<<20).MustAddRequired("done")
	spare := a.MustNewComponent("spare", workerBody(fastCost)).
		MustAddProvided("in", 4<<20).MustAddRequired("done")

	collected := 0
	collector := a.MustNewComponent("collector", func(ctx *core.Ctx) {
		for {
			if _, ok := ctx.Receive("results"); !ok {
				return
			}
			collected++
		}
	}).MustAddProvided("results", 4<<20)

	a.MustConnect(dispatcher, "out", worker, "in")
	a.MustConnect(worker, "done", collector, "results")
	a.MustConnect(spare, "done", collector, "results")

	// The policy: when the worker's window shows a mailbox depth high-water
	// above 4, migrate the dispatcher's edge to the spare. The huge
	// cooldown makes it a one-shot rule.
	controller := ctl.NewController()
	if err := controller.SetPolicies([]ctl.Policy{{
		Name: "drain-hot-worker", Component: "worker",
		Metric: ctl.MetricDepthHigh, Op: ">", Threshold: 4,
		CooldownWindows: 1 << 30,
		Action: ctl.Action{
			Type: ctl.ActMigrate,
			From: "dispatcher", Required: "out", To: "spare", Provided: "in",
		},
	}}); err != nil {
		log.Fatal(err)
	}

	// The monitor feeds every closed window to the controller. Observe is
	// pure decision-making, so it is safe inside the pump; the decided
	// firings cross to the executor driver under a lock.
	var mu sync.Mutex
	var pending []ctl.Firing
	mon, err := monitor.New(a, monitor.Config{
		Levels:   []monitor.LevelPeriod{{Level: core.LevelApplication, PeriodUS: 200}},
		WindowUS: 2000,
		Sinks: []monitor.Sink{monitor.SinkFunc(func(w monitor.WindowStats) error {
			if fs := controller.Observe(monitor.NewWindowRecord(w)); len(fs) > 0 {
				mu.Lock()
				pending = append(pending, fs...)
				mu.Unlock()
			}
			return nil
		})},
	})
	if err != nil {
		log.Fatal(err)
	}

	// The executor: a driver flow polling for firings and applying them on
	// the live assembly — the only context where a blocking migrate is
	// legal on every platform binding.
	var applied []ctl.Firing
	a.SpawnDriver("executor", func(f core.Flow) {
		for !a.Done() {
			f.SleepUS(500)
			mu.Lock()
			fs := pending
			pending = nil
			mu.Unlock()
			for _, fi := range fs {
				act := fi.Policy.Action
				from, _ := a.Component(act.From)
				to, _ := a.Component(act.To)
				if err := a.Migrate(f, from, act.Required, to, act.Provided); err != nil {
					log.Fatalf("migrate: %v", err)
				}
				applied = append(applied, fi)
				fmt.Printf("t=%dµs  policy %q fired: %s=%.0f on %q → migrated %s.%s to %s.%s\n",
					m.NowUS(), fi.Policy.Name, fi.Metric, fi.Value, fi.Component,
					act.From, act.Required, act.To, act.Provided)
			}
		}
	})

	if err := mon.Start(); err != nil {
		log.Fatal(err)
	}
	if err := a.Start(); err != nil {
		log.Fatal(err)
	}
	if err := m.Run(3600 * 1e6); err != nil {
		log.Fatal(err)
	}

	fired, suppressed, _ := controller.Counters()
	fmt.Printf("\nmakespan %dµs  windows fired=%d suppressed=%d\n", m.NowUS(), fired, suppressed)
	if len(applied) == 0 {
		log.Fatal("the depth policy never fired — no feedback happened")
	}
	if collected != items {
		log.Fatalf("conservation broken: collector saw %d of %d items", collected, items)
	}
	fmt.Printf("all %d items collected exactly once; the hot worker's backlog moved with the edge\n", items)
}
