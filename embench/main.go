// Command embench is embera's end-to-end benchmark. It drives three
// workloads through embera's public packages from outside the program,
// checks every run's outputs, and prints one JSON result line:
//
//	embench --workload sim-burst|cluster-mjpeg|serve-native --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics, taken from a run that records spans
// around every call it makes into a layer and attaches a trace recorder as
// the run's event sink. Spans are written to .bench_build/spans/ when the
// run ends. The metric definitions live in metrics.go and are mirrored in
// BENCHMARK.json at the repository root.
//
// Build and run it through embench/run.sh from the repository root, which
// keeps the build cache and every temporary file under .bench_build/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"embera/internal/cluster"
)

// defaultSeed is the seed the benchmark was tuned on; heldOutSeed was kept
// out of tuning and is used to check that a result is not seed-specific.
const (
	defaultSeed = 1
	heldOutSeed = 7
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// tiny shrinks every input to a smoke-test size (the self-test).
	tiny bool
	// spansDir receives the span file of a traced run.
	spansDir string
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	// The cluster platform re-executes this binary as its worker shards.
	cluster.MaybeWorkerMain()

	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", defaultSeed, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "seconds to measure")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced variant and prints per-layer metrics")
	flag.Parse()
	if flag.NArg() != 0 || (trace != 0 && trace != 1) || cfg.seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	cfg.trace = trace == 1
	cfg.spansDir = ".bench_build/spans"

	res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "embench: %v\n", err)
		os.Exit(2)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "embench: %v\n", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one invocation and assembles its result line. An error means
// the benchmark could not run at all (unknown workload, broken set-up); a
// failed check is a counted failure in the result instead.
func run(cfg config) (*result, error) {
	wl, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	b := newBench(cfg)
	if err := wl.run(b); err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	if cfg.trace {
		if err := b.spans.writeFile(cfg.spansDir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed)); err != nil {
			return nil, err
		}
	}
	for _, msg := range b.failures {
		fmt.Fprintf(os.Stderr, "embench: %s: FAILED %s\n", cfg.workload, msg)
	}
	res := &result{
		Correct:   b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   map[string]metricValue{},
	}
	if res.Attempted == 0 {
		res.Attempted, res.Failed, res.Correct = 1, 1, false
	}
	for _, m := range metricTable(cfg.trace) {
		// A per-layer metric of a layer the workload's path does not cross
		// reads 0; every end-to-end metric must have been measured.
		v, ok := b.values[m.name]
		if !ok && !cfg.trace {
			return nil, fmt.Errorf("%s: metric %s was not measured", cfg.workload, m.name)
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	return res, nil
}

// bench is the state one invocation accumulates: the metric values, the
// operation accounting behind error_rate, and the span recorder.
type bench struct {
	cfg               config
	values            map[string]float64
	attempted, failed int
	failures          []string
	spans             *spanRecorder
}

func newBench(cfg config) *bench {
	return &bench{cfg: cfg, values: map[string]float64{}, spans: newSpanRecorder(cfg.trace)}
}

func (b *bench) set(name string, v float64) { b.values[name] = v }

// ops counts n attempted operations of which failed failed, as err says.
func (b *bench) ops(n, failed int, err error) {
	b.attempted += n
	if failed > 0 {
		b.failed += failed
		b.failures = append(b.failures, err.Error())
	}
}

// op counts one attempted operation; a non-nil err counts it as failed.
func (b *bench) op(err error) {
	if err != nil {
		b.ops(1, 1, err)
	} else {
		b.ops(1, 0, nil)
	}
}

// deadline reports the end of the measured interval that starts now.
func (b *bench) deadline() time.Time {
	return time.Now().Add(time.Duration(b.cfg.seconds * float64(time.Second)))
}
