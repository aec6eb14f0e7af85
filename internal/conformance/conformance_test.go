package conformance_test

import (
	"testing"

	"embera/internal/conformance"
	"embera/internal/exp"
	"embera/internal/platform"

	// Workload registrations for the matrix battery.
	_ "embera/internal/mjpegapp"
	_ "embera/internal/pipelineapp"
)

// TestConformanceEveryPlatform runs the deep differential battery one
// platform at a time over its own rand seed range (disjoint from the
// acceptance battery's 0–63 and the sweep's 100–123), so a failure names
// the platform in its subtest. CI repeats it to catch a component whose OS
// view still reads running at quiescence.
func TestConformanceEveryPlatform(t *testing.T) {
	const first, seeds = 200, 25
	for _, name := range platform.Names() {
		spec := conformance.Spec{Family: "rand", Platforms: []string{name}}
		t.Run(name, func(t *testing.T) {
			for seed := int64(first); seed < first+seeds; seed++ {
				if err := conformance.Differential(spec, seed); err != nil {
					t.Error(err)
				}
			}
		})
	}
}

// TestBindingsAgreeOnCounters: the same generated assembly must produce
// identical application-level counters on every platform, component by
// component (timings differ, semantics must not).
func TestBindingsAgreeOnCounters(t *testing.T) {
	names := platform.Names()
	if len(names) < 2 {
		t.Skip("need at least two platforms")
	}
	spec := conformance.Spec{Family: "rand"}
	for seed := int64(0); seed < 10; seed++ {
		wn := spec.Workload(seed)
		runs := make([]*exp.Result, len(names))
		for i, pn := range names {
			run, err := exp.RunNamed(pn, wn, exp.Options{})
			if err != nil {
				t.Fatalf("%s × %s: %v", pn, wn, err)
			}
			runs[i] = run
		}
		ref := runs[0]
		for i, run := range runs[1:] {
			if len(run.Reports) != len(ref.Reports) {
				t.Errorf("%s: %s reports %d components, %s %d", wn,
					names[i+1], len(run.Reports), names[0], len(ref.Reports))
			}
			for comp, repA := range ref.Reports {
				repB, ok := run.Reports[comp]
				if !ok {
					t.Fatalf("%s: component %s missing on %s", wn, comp, names[i+1])
				}
				if repA.App.SendOps != repB.App.SendOps || repA.App.RecvOps != repB.App.RecvOps {
					t.Errorf("%s: %s counters differ between %s and %s: %d/%d vs %d/%d", wn, comp,
						names[0], names[i+1], repA.App.SendOps, repA.App.RecvOps, repB.App.SendOps, repB.App.RecvOps)
				}
			}
		}
	}
}

// matrixCell is the comparable outcome of running one workload on one
// platform: the bit-exact fingerprint of everything the run observed (for
// determinism on the same platform) and the workload's result digest and
// unit count (for portability across platforms).
type matrixCell struct {
	fingerprint, checksum uint64
	units                 int
}

func runMatrixCell(t *testing.T, p platform.Platform, wn string, opts platform.Options) matrixCell {
	t.Helper()
	run, err := exp.Run(p, platform.MustGetWorkload(wn), exp.Options{Options: opts})
	if err != nil {
		t.Fatalf("%s × %s: %v", p.Name(), wn, err)
	}
	fp, err := conformance.Fingerprint(run)
	if err != nil {
		t.Fatalf("%s × %s: %v", p.Name(), wn, err)
	}
	return matrixCell{fingerprint: fp, checksum: run.Instance.Checksum(), units: run.Instance.Units()}
}

// TestWorkloadMatrix runs every registered workload on every registered
// platform twice. On deterministic (virtual-time) platforms the two runs
// of a cell must be bit-identical down to every timing in every report; on
// wall-clock platforms timings legitimately differ between runs, so only
// the result checksum and unit count are asserted. Across platforms a
// workload's checksum must always agree (portability) — that includes the
// native platform reproducing the simulators' checksums.
func TestWorkloadMatrix(t *testing.T) {
	const scale = 8
	for _, wn := range platform.WorkloadNames() {
		t.Run(wn, func(t *testing.T) {
			type cellID struct {
				platform string
				cell     matrixCell
			}
			var cells []cellID
			for _, pn := range platform.Names() {
				p := platform.MustGet(pn)
				opts := platform.Options{Scale: scale}
				first := runMatrixCell(t, p, wn, opts)
				second := runMatrixCell(t, p, wn, opts)
				if p.Deterministic() && first.fingerprint != second.fingerprint {
					t.Errorf("%s × %s: nondeterministic reports: %016x vs %016x",
						pn, wn, first.fingerprint, second.fingerprint)
				}
				if first.checksum != second.checksum || first.units != second.units {
					t.Errorf("%s × %s: nondeterministic results: %016x/%d vs %016x/%d",
						pn, wn, first.checksum, first.units, second.checksum, second.units)
				}
				if first.units == 0 {
					t.Errorf("%s × %s: no work done", pn, wn)
				}
				cells = append(cells, cellID{platform: pn, cell: first})
			}
			for _, c := range cells[1:] {
				if c.cell.checksum != cells[0].cell.checksum {
					t.Errorf("checksum differs across platforms: %s %016x vs %s %016x",
						c.platform, c.cell.checksum, cells[0].platform, cells[0].cell.checksum)
				}
				if c.cell.units != cells[0].cell.units {
					t.Errorf("units differ across platforms: %s %d vs %s %d",
						c.platform, c.cell.units, cells[0].platform, cells[0].cell.units)
				}
			}
		})
	}
}
