package exp

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"testing"

	"embera/internal/core"
	"embera/internal/monitor"
	"embera/internal/platform"
)

// windowsGolden is the file pinning the monitor's window stream.
const windowsGolden = "windows.golden"

// windowsGoldenConfigs are the monitor configurations TestWindowsGolden runs
// every observed cell under: an application sampler alone over one and over
// two ring shards (the pump drains shard by shard, so the two fold the same
// samples in different orders), and an application sampler beside an OS
// sampler, which adds the OS facet (MemHigh) and a second writer partition.
var windowsGoldenConfigs = []struct {
	name   string
	levels []monitor.LevelPeriod
	shards int
}{
	{"app/shards=1", []monitor.LevelPeriod{{Level: core.LevelApplication, PeriodUS: 1000}}, 1},
	{"app/shards=2", []monitor.LevelPeriod{{Level: core.LevelApplication, PeriodUS: 1000}}, 2},
	{"app+os/shards=2", []monitor.LevelPeriod{
		{Level: core.LevelApplication, PeriodUS: 1000},
		{Level: core.LevelOS, PeriodUS: 5000},
	}, 2},
}

// hashWindow feeds every field of w, histogram buckets included, to h.
func hashWindow(h hash.Hash64, w *monitor.WindowStats) {
	var b []byte
	b = binary.AppendUvarint(b, uint64(len(w.Component)))
	b = append(b, w.Component...)
	for _, v := range []uint64{
		uint64(w.StartUS), uint64(w.EndUS), uint64(w.Samples), uint64(w.CoveredUS),
		w.SendOps, w.RecvOps, w.DeltaSendOps, w.DeltaRecvOps,
		math.Float64bits(w.SendRate), math.Float64bits(w.RecvRate),
		uint64(w.DepthHigh), uint64(w.MemHigh),
	} {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	for _, hist := range []*monitor.Hist{&w.DepthHist, &w.LatencyHist} {
		for i := range hist.Counts {
			b = binary.LittleEndian.AppendUint64(b, hist.Counts[i])
		}
		b = binary.LittleEndian.AppendUint64(b, hist.Total)
		b = binary.LittleEndian.AppendUint64(b, uint64(hist.Max))
	}
	h.Write(b)
}

// TestWindowsGolden pins the monitor's window stream on every observed
// simulated cell of TestScheduleGolden: for each configuration of
// windowsGoldenConfigs, the number of windows and samples and an FNV-64
// over every field of every window, in the order the pump hands them to
// the sinks. The stream is hashed as a configured sink receives it, and the
// built-in memory sink's log (Monitor.Windows) must hash the same. Any
// change to sampling, the ring, the fold or the sinks that moves a single
// bit of a single window shows up here. Rewrite it with
//
//	go test ./internal/exp -run TestWindowsGolden -update
//
// only for an intended change to what the monitor reports.
func TestWindowsGolden(t *testing.T) {
	var got bytes.Buffer
	for _, pname := range []string{"smp", "sti7200"} {
		for _, wname := range scheduleCells {
			for _, mc := range windowsGoldenConfigs {
				p := platform.MustGet(pname)
				w, err := platform.GetWorkload(wname)
				if err != nil {
					t.Fatal(err)
				}
				streamed := fnv.New64a()
				windows := 0
				opts := Options{Options: platform.Options{Scale: 8}}
				opts.Monitor = &monitor.Config{
					Levels:     mc.levels,
					WindowUS:   10_000,
					RingShards: mc.shards,
					Sinks: []monitor.Sink{monitor.SinkFunc(func(w monitor.WindowStats) error {
						hashWindow(streamed, &w)
						windows++
						return nil
					})},
				}
				res, err := Run(p, w, opts)
				if err != nil {
					t.Fatalf("%s×%s %s: %v", pname, wname, mc.name, err)
				}
				stored := fnv.New64a()
				logged := res.Monitor.Windows()
				for i := range logged {
					hashWindow(stored, &logged[i])
				}
				if len(logged) != windows || stored.Sum64() != streamed.Sum64() {
					t.Fatalf("%s×%s %s: memory sink holds %d windows hashing %016x, the stream had %d hashing %016x",
						pname, wname, mc.name, len(logged), stored.Sum64(), windows, streamed.Sum64())
				}
				if res.Monitor.Dropped() != 0 {
					t.Fatalf("%s×%s %s: ring dropped %d samples", pname, wname, mc.name, res.Monitor.Dropped())
				}
				fmt.Fprintf(&got, "%s %s %s windows=%d samples=%d windows_fnv64=%016x\n",
					pname, wname, mc.name, windows, res.Monitor.Samples(), streamed.Sum64())
			}
		}
	}
	path := filepath.Join("testdata", windowsGolden)
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
		t.Fatalf("monitor window stream moved:\n--- got\n%s--- want\n%s", got.Bytes(), want)
	}
}
