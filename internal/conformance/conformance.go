// Package conformance is the binding-independent test suite for the EMBera
// model: one differential battery (differential.go) that runs seeded
// generated workloads on every registered platform and holds each run to
// the invariants every platform binding must satisfy — per-report sanity,
// flow conservation, monitor/observer agreement, sane latency tails and
// bit-identical reruns on deterministic platforms. A future platform gets
// the whole suite by registering with internal/platform; a future seeded
// workload family gets it by implementing platform.FlowModeler.
package conformance

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sort"

	"embera/internal/exp"
)

// Fingerprint digests everything a completed run observed — the full
// observation reports plus the makespan — bit-exactly: two runs of the same
// workload on the same Deterministic platform must produce identical
// fingerprints.
func Fingerprint(run *exp.Result) (uint64, error) {
	h := fnv.New64a()
	fmt.Fprintf(h, "makespan=%d\n", run.MakespanUS)
	names := make([]string, 0, len(run.Reports))
	for n := range run.Reports {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		// JSON over ObsReport covers every level — counters, timings,
		// interface listings — deterministically: pointers are
		// dereferenced and map keys sorted.
		blob, err := json.Marshal(run.Reports[n])
		if err != nil {
			return 0, err
		}
		fmt.Fprintf(h, "%s: %s\n", n, blob)
	}
	return h.Sum64(), nil
}
