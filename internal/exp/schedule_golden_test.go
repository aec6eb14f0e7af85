package exp

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	"embera/internal/core"
	"embera/internal/monitor"
	"embera/internal/platform"
	"embera/internal/trace"

	_ "embera/internal/burstwl" // burst:<spec> family registration
)

// -update rewrites the schedule golden file:
//
//	go test ./internal/exp -run TestScheduleGolden -update
var update = flag.Bool("update", false, "rewrite golden files")

// scheduleGolden is the file pinning the simulated schedule.
const scheduleGolden = "schedule.golden"

// scheduleCells are the workloads the golden file pins on both paper
// platforms: the MJPEG decoder, the pipeline, the benchmark's wide burst
// spec and one generated assembly.
var scheduleCells = []string{
	"mjpeg",
	"pipeline",
	"burst:clients=16,servers=8,fanout=4,rate=200000,seed=1",
	"rand:11",
}

// neutralMonitor is the monitor every cell is also run under: sampling on
// the simulators costs no virtual time, so attaching it must leave the
// schedule exactly as the bare run has it.
var neutralMonitor = monitor.Config{
	Levels: []monitor.LevelPeriod{
		{Level: core.LevelApplication, PeriodUS: 1000},
		{Level: core.LevelOS, PeriodUS: 5000},
	},
	RingShards: 2,
}

// scheduleLine runs wname on pname at scale 8, under mon when it is not
// nil, and returns the cell's line of the golden file.
func scheduleLine(t *testing.T, pname, wname string, mon *monitor.Config) string {
	t.Helper()
	p := platform.MustGet(pname)
	w, err := platform.GetWorkload(wname)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder(1 << 20)
	res, err := Run(p, w, Options{Options: platform.Options{Scale: 8}, EventSink: rec, Monitor: mon})
	if err != nil {
		t.Fatalf("%s×%s: %v", pname, wname, err)
	}
	events, dropped := rec.Stats()
	if dropped != 0 {
		t.Fatalf("%s×%s: trace ring dropped %d events", pname, wname, dropped)
	}
	h := fnv.New64a()
	if err := trace.Write(h, rec.Events()); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%s %s makespan_us=%d checksum=%016x units=%d events=%d trace_fnv64=%016x\n",
		pname, wname, res.MakespanUS, res.Instance.Checksum(), res.Instance.Units(),
		events, h.Sum64())
}

// assertNeutral fails unless the cell's line observed under neutralMonitor
// equals its bare line, and returns the bare line.
func assertNeutral(t *testing.T, pname, wname string) string {
	t.Helper()
	mon := neutralMonitor
	bare, observed := scheduleLine(t, pname, wname, nil), scheduleLine(t, pname, wname, &mon)
	if observed != bare {
		t.Errorf("attaching the monitor moved the schedule:\nbare     %sobserved %s", bare, observed)
	}
	return bare
}

// TestScheduleGolden pins the simulators' schedule: for smp and sti7200 ×
// scheduleCells at scale 8, the virtual makespan, checksum, units and an
// FNV-64 of the binary trace stream must repeat byte for byte. Any change
// to the order in which the kernel dispatches events — however it hands
// control to a process — shows up here as a golden-file diff. Each cell,
// and rand:0..rand:49 on both simulators, must also read the same
// observed as bare: the monitor may not move what it observes.
func TestScheduleGolden(t *testing.T) {
	var got bytes.Buffer
	for _, pname := range []string{"smp", "sti7200"} {
		for _, wname := range scheduleCells {
			got.WriteString(assertNeutral(t, pname, wname))
		}
		for seed := 0; seed < 50; seed++ {
			assertNeutral(t, pname, fmt.Sprintf("rand:%d", seed))
		}
	}
	path := filepath.Join("testdata", scheduleGolden)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("simulated schedule moved:\n--- got\n%s--- want\n%s", got.Bytes(), want)
	}
}
