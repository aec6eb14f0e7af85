package exp

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"embera/internal/core"
	"embera/internal/monitor"
	"embera/internal/platform"
)

// kernelGolden is the file pinning the simulated event stream.
const kernelGolden = "kernel.golden"

// TestKernelGolden pins the kernel's event stream under every simulated
// cell of TestScheduleGolden, observed and bare: the events scheduled and
// dispatched, and the resumes that found their process still ready. The
// kernel may serve a resume by switching into the process or by re-parking
// it in kernel context; either way the resume is one dispatched event, so
// any change to how the kernel queues or serves events that adds, drops or
// reorders one shows up here even when the trace does not move. Rewrite it
// with
//
//	go test ./internal/exp -run TestKernelGolden -update
//
// only for an intended schedule change.
func TestKernelGolden(t *testing.T) {
	var got bytes.Buffer
	for _, pname := range []string{"smp", "sti7200"} {
		for _, wname := range scheduleCells {
			for _, observed := range []bool{true, false} {
				p := platform.MustGet(pname)
				w, err := platform.GetWorkload(wname)
				if err != nil {
					t.Fatal(err)
				}
				opts := Options{Options: platform.Options{Scale: 8}}
				mode := "bare"
				if observed {
					mode = "observed"
					opts.Monitor = &monitor.Config{
						Levels:     []monitor.LevelPeriod{{Level: core.LevelApplication, PeriodUS: 1000}},
						WindowUS:   10_000,
						RingShards: 2,
					}
				}
				res, err := Run(p, w, opts)
				if err != nil {
					t.Fatalf("%s×%s %s: %v", pname, wname, mode, err)
				}
				st := res.Kernel.Stats()
				fmt.Fprintf(&got, "%s %s %s scheduled=%d dispatched=%d resumes=%d\n",
					pname, wname, mode, st.Scheduled, st.Dispatched, st.Switches+st.Reparks)
			}
		}
	}
	path := filepath.Join("testdata", kernelGolden)
	if *update {
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
		t.Fatalf("kernel event stream moved:\n--- got\n%s--- want\n%s", got.Bytes(), want)
	}
}
