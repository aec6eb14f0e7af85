package exp

import (
	"fmt"
	"strings"

	"embera/internal/core"
)

// Queue-occupancy experiment (E6): sample every provided interface's mailbox
// depth at a fixed virtual-time interval over one MJPEG run. It is the
// dynamic counterpart of §6's "evolution of memory during the execution of a
// program" — pipeline fill, steady state and drain become visible, and
// backpressure shows up as a saturated IDCT inbox.

// OccupancySample is one polling instant.
type OccupancySample struct {
	TimeUS int64
	// Depth maps "component.interface" to buffered message count.
	Depth map[string]int
}

// QueueOccupancy runs the SMP MJPEG application with the given IDCT inbox
// size, sampling queue depths through the observation interface every
// intervalUS of virtual time.
func QueueOccupancy(frames int, idctBufBytes int64, intervalUS int64) ([]OccupancySample, error) {
	stream, err := RefStream(frames)
	if err != nil {
		return nil, err
	}
	p := SMP()
	cfg := mjpegCfg(stream, p)
	cfg.IDCTBufBytes = idctBufBytes
	var samples []OccupancySample
	run, err := runMJPEG(p, cfg, Options{Customize: func(a *core.App, obs *core.Observer) {
		a.SpawnDriver("occupancy-poller", func(f core.Flow) {
			for !a.Done() {
				f.SleepUS(intervalUS)
				reports, err := obs.QueryAll(f, core.LevelApplication)
				if err != nil {
					return
				}
				s := OccupancySample{TimeUS: nowOf(a), Depth: map[string]int{}}
				for name, rep := range reports {
					for _, i := range rep.App.Interfaces {
						if i.Type == "provided" && i.Name != core.ObsIfaceName {
							s.Depth[name+"."+i.Name] = i.Depth
						}
					}
				}
				samples = append(samples, s)
			}
		})
	}})
	if err != nil {
		return nil, err
	}
	_ = run
	return samples, nil
}

// nowOf reads the current platform time through the binding of the app's
// first component (one global clock on the SMP platform).
func nowOf(a *core.App) int64 {
	comps := a.Components()
	if len(comps) == 0 {
		return 0
	}
	return a.Binding().NowUS(comps[0])
}

// FormatOccupancy renders the depth series for the named queues.
func FormatOccupancy(samples []OccupancySample, queues []string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%12s", "t (µs)")
	for _, q := range queues {
		fmt.Fprintf(&b, " %20s", q)
	}
	fmt.Fprintln(&b)
	for _, s := range samples {
		fmt.Fprintf(&b, "%12d", s.TimeUS)
		for _, q := range queues {
			fmt.Fprintf(&b, " %20d", s.Depth[q])
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}
