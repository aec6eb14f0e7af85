package perfstat

import (
	"strings"
	"testing"
)

// TestObservationOverheadSmp runs the overhead harness for one simulated
// cell and checks the record shape: both entries present, units filled,
// overhead recorded on the monitor-on side.
func TestObservationOverheadSmp(t *testing.T) {
	rec, err := ObservationOverhead(HarnessOptions{
		Platforms: []string{"smp"},
		Workloads: []string{"pipeline"},
		Scale:     20,
	})
	if err != nil {
		t.Fatal(err)
	}
	off, ok := rec["OV/smp×pipeline/monitor-off"]
	if !ok {
		t.Fatalf("monitor-off entry missing: %v", keys(rec))
	}
	on, ok := rec["OV/smp×pipeline/monitor-on"]
	if !ok {
		t.Fatalf("monitor-on entry missing: %v", keys(rec))
	}
	if off.TotalNs <= 0 || on.TotalNs <= 0 {
		t.Fatalf("cells report no time: off=%+v on=%+v", off, on)
	}
	if off.Units != 20 || on.Units != 20 {
		t.Fatalf("cells report units %v/%v, want 20 (workload scale)", off.Units, on.Units)
	}
	if off.OverheadPct != 0 {
		t.Fatalf("monitor-off entry carries an overhead: %+v", off)
	}
}

// TestObservationOverheadUnknownNames surfaces registry errors instead of
// recording empty cells.
func TestObservationOverheadUnknownNames(t *testing.T) {
	if _, err := ObservationOverhead(HarnessOptions{Platforms: []string{"vax"}}); err == nil {
		t.Fatal("unknown platform accepted")
	}
	if _, err := ObservationOverhead(HarnessOptions{
		Platforms: []string{"smp"}, Workloads: []string{"nosuch"},
	}); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

// TestMicroBenchmarksZeroAllocPaths runs the micro harness (at the small
// automatic b.N testing.Benchmark settles on) and asserts the zero-alloc
// invariants hold on the acceptance paths: the monitor sample tick, the
// native mailbox send and fan-in, the sim kernel's send and sender herd,
// the trace recorder and the MJPEG IDCT stage. The native micros gate like the rest: parking allocates nothing.
func TestMicroBenchmarksZeroAllocPaths(t *testing.T) {
	if testing.Short() {
		t.Skip("micro harness is seconds-long; skipped under -short")
	}
	rec := MicroBenchmarks()
	for _, key := range []string{
		"micro/monitor-sample-tick", "micro/native-mailbox-send", "micro/native-mailbox-fanin",
		"micro/sim-kernel-send", "micro/sim-herd", "micro/trace-emit", "micro/trace-write-event",
		"micro/mjpeg-fetch", "micro/mjpeg-idct", "micro/mjpeg-reorder",
	} {
		e, ok := rec[key]
		if !ok {
			t.Fatalf("%s missing from record: %v", key, keys(rec))
		}
		if e.Units <= 0 || e.NsPerOp <= 0 {
			t.Fatalf("%s not measured: %+v", key, e)
		}
		if e.Nondeterministic {
			t.Fatalf("%s exempt from the gate", key)
		}
	}
	for _, key := range []string{
		"micro/monitor-sample-tick", "micro/native-mailbox-send", "micro/native-mailbox-fanin", "micro/trace-emit",
		"micro/mjpeg-idct", "micro/sim-kernel-send", "micro/sim-herd",
	} {
		if a := rec[key].AllocsPerOp; a >= 1 {
			t.Fatalf("%s allocates %.2f per op, want amortized zero", key, a)
		}
	}
}

func keys(r Record) string {
	var out []string
	for k := range r {
		out = append(out, k)
	}
	return strings.Join(out, ", ")
}
