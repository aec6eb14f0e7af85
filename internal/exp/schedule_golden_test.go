package exp

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

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

// TestScheduleGolden pins the simulators' schedule: for smp and sti7200 ×
// scheduleCells at scale 8, the virtual makespan, checksum, units and an
// FNV-64 of the binary trace stream must repeat byte for byte. Any change
// to the order in which the kernel dispatches events — however it hands
// control to a process — shows up here as a golden-file diff.
func TestScheduleGolden(t *testing.T) {
	var got bytes.Buffer
	for _, pname := range []string{"smp", "sti7200"} {
		for _, wname := range scheduleCells {
			p := platform.MustGet(pname)
			w, err := platform.GetWorkload(wname)
			if err != nil {
				t.Fatal(err)
			}
			rec := trace.NewRecorder(1 << 20)
			res, err := Run(p, w, Options{Options: platform.Options{Scale: 8}, EventSink: rec})
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
			fmt.Fprintf(&got, "%s %s makespan_us=%d checksum=%016x units=%d events=%d trace_fnv64=%016x\n",
				pname, wname, res.MakespanUS, res.Instance.Checksum(), res.Instance.Units(),
				events, h.Sum64())
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
