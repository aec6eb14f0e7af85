package exp

import (
	"strings"
	"testing"

	"embera/internal/core"
	"embera/internal/monitor"
	"embera/internal/platform"
)

// The experiment runners are exercised here on reduced frame counts; the
// full paper-scale runs live in cmd/embera-bench and bench_test.go.

const (
	tinySmall = 6
	tinyLarge = 30
)

func TestTable1ShapeHolds(t *testing.T) {
	rows, err := Table1(tinySmall, tinyLarge)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]T1Row{}
	for _, r := range rows {
		byName[r.Component] = r
	}
	// Memory column must reproduce the paper exactly.
	if byName["Fetch"].MemKB != 8392 {
		t.Errorf("Fetch mem = %d", byName["Fetch"].MemKB)
	}
	if byName["IDCT_1"].MemKB != 10850 {
		t.Errorf("IDCT mem = %d", byName["IDCT_1"].MemKB)
	}
	if byName["Reorder"].MemKB != 13308 {
		t.Errorf("Reorder mem = %d", byName["Reorder"].MemKB)
	}
	// Time scales ~linearly with frames (5x).
	for _, name := range []string{"Fetch", "IDCT_1", "Reorder"} {
		r := byName[name]
		ratio := float64(r.TimeLargeUS) / float64(r.TimeSmallUS)
		if ratio < 3.5 || ratio > 6.5 {
			t.Errorf("%s time ratio = %.2f, want ~5", name, ratio)
		}
	}
	// Balance: the three classes within 25% of each other.
	f, i, re := byName["Fetch"].TimeSmallUS, byName["IDCT_1"].TimeSmallUS, byName["Reorder"].TimeSmallUS
	for _, pair := range [][2]int64{{f, i}, {i, re}, {f, re}} {
		ratio := float64(pair[0]) / float64(pair[1])
		if ratio < 0.75 || ratio > 1.33 {
			t.Errorf("imbalance: %v", []int64{f, i, re})
		}
	}
	out := FormatTable1(rows, tinySmall, tinyLarge)
	if !strings.Contains(out, "Fetch") || !strings.Contains(out, "Mem (kB)") {
		t.Error("Table 1 formatting broken")
	}
}

func TestTable2ShapeHolds(t *testing.T) {
	rows, err := Table2(tinySmall, tinyLarge)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]T2Row{}
	for _, r := range rows {
		byName[r.Component] = r
	}
	n := uint64(tinySmall)
	if f := byName["Fetch"]; f.SendSmall != 18*n || f.RecvSmall != 0 {
		t.Errorf("Fetch = %+v", f)
	}
	if i := byName["IDCT_1"]; i.SendSmall != 6*n || i.RecvSmall != 6*n {
		t.Errorf("IDCT_1 = %+v", i)
	}
	if r := byName["Reorder"]; r.RecvSmall != 18*n || r.SendSmall != 0 {
		t.Errorf("Reorder = %+v", r)
	}
	// Fetch sends = 3 x IDCT sends; Reorder receives = Fetch sends — the
	// inference the paper draws from Table 2.
	if byName["Fetch"].SendSmall != 3*byName["IDCT_1"].SendSmall {
		t.Error("Fetch/IDCT ratio broken")
	}
	if byName["Reorder"].RecvSmall != byName["Fetch"].SendSmall {
		t.Error("Reorder/Fetch symmetry broken")
	}
	out := FormatTable2(rows, tinySmall, tinyLarge)
	if !strings.Contains(out, "receive6") {
		t.Error("Table 2 formatting broken")
	}
}

func TestFigure4LinearInSize(t *testing.T) {
	points, err := Figure4([]int{10, 20, 40, 80}, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Linearity: equal size steps give equal time steps (within 10%).
	d1 := points[1].MeanSendUS - points[0].MeanSendUS
	d2 := points[2].MeanSendUS - points[1].MeanSendUS
	if d1 <= 0 || d2 <= 0 {
		t.Fatalf("send time not increasing: %+v", points)
	}
	slope1 := d1 / 10
	slope2 := d2 / 20
	if slope2/slope1 < 0.9 || slope2/slope1 > 1.1 {
		t.Errorf("not linear: slopes %.3f vs %.3f", slope1, slope2)
	}
	// Magnitude: the paper reads ~300 µs at 125 kB; at 80 kB we must be in
	// the hundreds-of-µs regime, not ms or ns.
	if p := points[3].MeanSendUS; p < 50 || p > 1000 {
		t.Errorf("80 kB send = %.1f µs, outside the paper's regime", p)
	}
	if !strings.Contains(FormatFigure4(points), "send (µs)") {
		t.Error("Figure 4 formatting broken")
	}
}

func TestFigure5Listing(t *testing.T) {
	listing, err := Figure5()
	if err != nil {
		t.Fatal(err)
	}
	wantLines := []string{
		"Interfaces component [IDCT_1]",
		"introspection",
		"_fetchIdct1",
		"idctReorder",
	}
	for _, w := range wantLines {
		if !strings.Contains(listing, w) {
			t.Errorf("Figure 5 missing %q:\n%s", w, listing)
		}
	}
	// Exact paper order: provided obs, provided app, required obs, required app.
	lines := strings.Split(strings.TrimSpace(listing), "\n")
	if len(lines) != 7 {
		t.Fatalf("listing has %d lines:\n%s", len(lines), listing)
	}
	rows := lines[3:]
	wantRows := []struct{ name, typ string }{
		{"introspection", "provided"},
		{"_fetchIdct1", "provided"},
		{"introspection", "required"},
		{"idctReorder", "required"},
	}
	for i, w := range wantRows {
		if !strings.HasPrefix(rows[i], w.name) || !strings.HasSuffix(strings.TrimSpace(rows[i]), w.typ) {
			t.Errorf("row %d = %q, want %s %s", i, rows[i], w.name, w.typ)
		}
	}
}

func TestTable3ShapeHolds(t *testing.T) {
	rows, err := Table3(tinySmall)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]T3Row{}
	for _, r := range rows {
		byName[r.Component] = r
	}
	fr := byName["Fetch-Reorder"]
	idct := byName["IDCT_1"]
	if fr.MemKB != 110 || idct.MemKB != 85 {
		t.Errorf("memory = %d/%d kB, want 110/85", fr.MemKB, idct.MemKB)
	}
	ratio := fr.TimeSec / idct.TimeSec
	if ratio < 5 || ratio > 20 {
		t.Errorf("Fetch-Reorder/IDCT ratio = %.1f, want ~10", ratio)
	}
	if !strings.Contains(FormatTable3(rows, tinySmall), "Fetch-Reorder") {
		t.Error("Table 3 formatting broken")
	}
}

func TestFigure8Shape(t *testing.T) {
	points, err := Figure8([]int{25, 50, 100, 200}, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		if p.ST231SendMS >= p.ST40SendMS {
			t.Errorf("at %d kB: ST231 %.2f ms >= ST40 %.2f ms", p.SizeKB, p.ST231SendMS, p.ST40SendMS)
		}
	}
	// Knee: per-kB slope above 50 kB exceeds the slope below.
	below := (points[1].ST40SendMS - points[0].ST40SendMS) / 25
	above := (points[3].ST40SendMS - points[2].ST40SendMS) / 100
	if above <= below*1.2 {
		t.Errorf("no visible knee: slope below %.4f, above %.4f", below, above)
	}
	// Magnitude: tens of ms at 200 kB, as in the paper.
	if p := points[3].ST40SendMS; p < 5 || p > 200 {
		t.Errorf("200 kB ST40 send = %.1f ms, outside the paper's regime", p)
	}
	if !strings.Contains(FormatFigure8(points), "ST231") {
		t.Error("Figure 8 formatting broken")
	}
}

func TestAblationObservationOverheadIsZeroVirtual(t *testing.T) {
	r, err := AblationObservationOverhead(4)
	if err != nil {
		t.Fatal(err)
	}
	if r.BareMakespanUS != r.ObservedMakespanUS {
		t.Errorf("observation perturbed the application: %d vs %d µs",
			r.BareMakespanUS, r.ObservedMakespanUS)
	}
	if r.EventsCollected == 0 {
		t.Error("no events collected in the observed run")
	}
	if r.QueriesServed == 0 {
		t.Error("no observer sweeps ran")
	}
	if !strings.Contains(FormatA1(r), "makespan") {
		t.Error("A1 formatting broken")
	}
}

func TestAblationMailboxCapacityMonotone(t *testing.T) {
	points, err := AblationMailboxCapacity(4, []int64{8, 64, 2458})
	if err != nil {
		t.Fatal(err)
	}
	// Tighter buffers cannot be faster.
	if points[0].MakespanUS < points[2].MakespanUS {
		t.Errorf("8 kB mailbox faster than 2458 kB: %+v", points)
	}
	if !strings.Contains(FormatA2(points), "makespan") {
		t.Error("A2 formatting broken")
	}
}

func TestAblationNUMAPlacement(t *testing.T) {
	r, err := AblationNUMAPlacement(4)
	if err != nil {
		t.Fatal(err)
	}
	if r.SpreadSendUS <= r.ClusteredSendUS {
		t.Errorf("spread placement sends (%.1f µs) not dearer than clustered (%.1f µs)",
			r.SpreadSendUS, r.ClusteredSendUS)
	}
	if !strings.Contains(FormatA3(r), "clustered") {
		t.Error("A3 formatting broken")
	}
}

func TestAblationIDCTFanout(t *testing.T) {
	points, err := AblationIDCTFanout(4, []int{1, 3, 6})
	if err != nil {
		t.Fatal(err)
	}
	// 3 IDCTs must beat 1; 6 gains little beyond 3 (Fetch-bound).
	if points[1].MakespanUS >= points[0].MakespanUS {
		t.Errorf("3 IDCTs (%d µs) not faster than 1 (%d µs)",
			points[1].MakespanUS, points[0].MakespanUS)
	}
	gain31 := float64(points[0].MakespanUS) / float64(points[1].MakespanUS)
	gain63 := float64(points[1].MakespanUS) / float64(points[2].MakespanUS)
	if gain31 < 1.5 {
		t.Errorf("3-IDCT speedup only %.2fx", gain31)
	}
	if gain63 > gain31 {
		t.Errorf("speedup did not saturate: 1->3 %.2fx, 3->6 %.2fx", gain31, gain63)
	}
	if !strings.Contains(FormatA4(points), "IDCTs") {
		t.Error("A4 formatting broken")
	}
}

func TestRefStreamCachedAndDecodable(t *testing.T) {
	a, err := RefStream(3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RefStream(3)
	if err != nil {
		t.Fatal(err)
	}
	if &a[0] != &b[0] {
		t.Error("stream not cached")
	}
}

func TestQueueOccupancyShowsBackpressure(t *testing.T) {
	// With tiny IDCT inboxes the queues must saturate (depth pinned at the
	// few messages that fit); with roomy inboxes Fetch runs ahead and
	// depths grow larger.
	tiny, err := QueueOccupancy(6, 16*1024, 5_000)
	if err != nil {
		t.Fatal(err)
	}
	roomy, err := QueueOccupancy(6, 2458*1024, 5_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(tiny) == 0 || len(roomy) == 0 {
		t.Fatal("no samples collected")
	}
	tinyPeak := PeakDepths(tiny)["IDCT_1._fetchIdct1"]
	roomyPeak := PeakDepths(roomy)["IDCT_1._fetchIdct1"]
	if tinyPeak == 0 || roomyPeak == 0 {
		t.Fatalf("no queue activity observed: tiny=%d roomy=%d", tinyPeak, roomyPeak)
	}
	if tinyPeak >= roomyPeak {
		t.Errorf("backpressure invisible: tiny peak %d >= roomy peak %d", tinyPeak, roomyPeak)
	}
	// Queues drain by the end of the run.
	last := roomy[len(roomy)-1]
	for q, d := range last.Depth {
		if d != 0 {
			t.Errorf("queue %s still holds %d at quiescence", q, d)
		}
	}
	out := FormatOccupancy(roomy[:3], []string{"IDCT_1._fetchIdct1", "Reorder.idctReorder"})
	if !strings.Contains(out, "t (µs)") {
		t.Error("occupancy formatting broken")
	}
}

func TestRunOptionValidation(t *testing.T) {
	cases := []struct {
		name string
		opts Options
	}{
		{"negative scale", Options{Options: platform.Options{Scale: -1}}},
		{"negative message size", Options{Options: platform.Options{MessageBytes: -8}}},
		{"negative sampler period", Options{Monitor: &monitor.Config{
			Levels: []monitor.LevelPeriod{{Level: core.LevelApplication, PeriodUS: -5}},
		}}},
		{"zero sampler period", Options{Monitor: &monitor.Config{
			Levels: []monitor.LevelPeriod{{Level: core.LevelOS, PeriodUS: 0}},
		}}},
		{"negative window", Options{Monitor: &monitor.Config{WindowUS: -1}}},
		{"nil sink", Options{Monitor: &monitor.Config{Sinks: []monitor.Sink{nil}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panicked instead of returning an error: %v", r)
				}
			}()
			if _, err := RunNamed("smp", "pipeline", tc.opts); err == nil {
				t.Error("malformed options accepted")
			}
		})
	}
}

func TestMonitorRejectsNilSinkDirectly(t *testing.T) {
	// The same guard must hold below exp.Run, for direct monitor users.
	_, a := platform.MustGet("smp").New("x")
	if _, err := monitor.New(a, monitor.Config{Sinks: []monitor.Sink{nil}}); err == nil {
		t.Error("monitor.New accepted a nil sink")
	}
}

func TestRunMatrixCoversEveryCellConcurrently(t *testing.T) {
	cells, err := RunMatrix(nil, nil, Options{Options: platform.Options{Scale: 4}})
	if err != nil {
		t.Fatal(err)
	}
	want := len(platform.Names()) * len(platform.WorkloadNames())
	if len(cells) != want {
		t.Fatalf("cells = %d, want %d", len(cells), want)
	}
	checksums := map[string]uint64{} // workload -> checksum across platforms
	for _, c := range cells {
		if c.Err != nil {
			t.Errorf("%s × %s: %v", c.Platform, c.Workload, c.Err)
			continue
		}
		if c.Result.Instance.Units() == 0 {
			t.Errorf("%s × %s: no work done", c.Platform, c.Workload)
		}
		if prev, ok := checksums[c.Workload]; ok {
			if prev != c.Result.Instance.Checksum() {
				t.Errorf("%s × %s: checksum %016x diverges from %016x",
					c.Platform, c.Workload, c.Result.Instance.Checksum(), prev)
			}
		} else {
			checksums[c.Workload] = c.Result.Instance.Checksum()
		}
	}
	if !strings.Contains(FormatMatrix(cells), "checksum") {
		t.Error("matrix formatting broken")
	}
}

func TestRunMatrixUnknownNamesFailFast(t *testing.T) {
	if _, err := RunMatrix([]string{"vax"}, nil, Options{}); err == nil {
		t.Error("unknown platform accepted")
	}
	if _, err := RunMatrix(nil, []string{"nosuch"}, Options{}); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestRunNamedUnknownNamesListRegistry(t *testing.T) {
	if _, err := RunNamed("vax", "mjpeg", Options{}); err == nil ||
		!strings.Contains(err.Error(), "smp") || !strings.Contains(err.Error(), "sti7200") {
		t.Errorf("unknown platform error does not list registry: %v", err)
	}
	if _, err := RunNamed("smp", "nosuch", Options{}); err == nil ||
		!strings.Contains(err.Error(), "mjpeg") || !strings.Contains(err.Error(), "pipeline") {
		t.Errorf("unknown workload error does not list registry: %v", err)
	}
}

func TestRunEveryCellOfTheMatrix(t *testing.T) {
	for _, pn := range platform.Names() {
		for _, wn := range platform.WorkloadNames() {
			run, err := RunNamed(pn, wn, Options{Options: platform.Options{Scale: 4}})
			if err != nil {
				t.Fatalf("%s × %s: %v", pn, wn, err)
			}
			if run.Instance.Units() == 0 {
				t.Errorf("%s × %s: no work done", pn, wn)
			}
			if run.MakespanUS <= 0 {
				t.Errorf("%s × %s: makespan %d", pn, wn, run.MakespanUS)
			}
			if len(run.Reports) == 0 {
				t.Errorf("%s × %s: no observation reports", pn, wn)
			}
		}
	}
}

func TestPipelineCompareChecksumsAgree(t *testing.T) {
	rows, err := PipelineCompare(24)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(platform.Names()) {
		t.Fatalf("rows = %d, want one per platform", len(rows))
	}
	for _, r := range rows[1:] {
		if r.Checksum != rows[0].Checksum || r.Units != rows[0].Units {
			t.Errorf("platforms disagree: %+v vs %+v", rows[0], r)
		}
	}
	if !strings.Contains(FormatP1(rows), "checksum") {
		t.Error("P1 formatting broken")
	}
}

// PeakDepths reduces the samples to the maximum observed depth per queue.
func PeakDepths(samples []OccupancySample) map[string]int {
	peaks := map[string]int{}
	for _, s := range samples {
		for q, d := range s.Depth {
			if d > peaks[q] {
				peaks[q] = d
			}
		}
	}
	return peaks
}
