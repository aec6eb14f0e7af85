// Package report exports EMBera observation reports in machine-readable
// formats (JSON, CSV) for post-processing — plotting Figure-4-style series,
// diffing runs, feeding dashboards. It complements the human-readable
// formatters in internal/core.
package report

import (
	"encoding/csv"
	"encoding/json"
	"io"
	"sort"
	"strconv"

	"embera/internal/core"
)

// Sorted returns reports ordered by component name — stable output for
// files and tests.
func Sorted(reports map[string]core.ObsReport) []core.ObsReport {
	names := make([]string, 0, len(reports))
	for n := range reports {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]core.ObsReport, 0, len(names))
	for _, n := range names {
		out = append(out, reports[n])
	}
	return out
}

// WriteJSON emits the reports as an indented JSON array.
func WriteJSON(w io.Writer, reports map[string]core.ObsReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(Sorted(reports))
}

// csvHeader is the flat per-component summary schema.
var csvHeader = []string{
	"component", "state", "exec_us", "mem_bytes", "running",
	"send_ops", "recv_ops", "send_bytes", "recv_bytes",
	"cache_hits", "cache_misses",
}

// WriteCSV emits one summary row per component. Level-specific sections that
// were not requested produce empty cells.
func WriteCSV(w io.Writer, reports map[string]core.ObsReport) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	for _, rep := range Sorted(reports) {
		row := make([]string, len(csvHeader))
		row[0] = rep.Component
		if rep.App != nil {
			row[1] = rep.App.State
			row[5] = strconv.FormatUint(rep.App.SendOps, 10)
			row[6] = strconv.FormatUint(rep.App.RecvOps, 10)
		}
		if rep.OS != nil {
			row[2] = strconv.FormatInt(rep.OS.ExecTimeUS, 10)
			row[3] = strconv.FormatInt(rep.OS.MemBytes, 10)
			row[4] = strconv.FormatBool(rep.OS.Running)
			row[9] = strconv.FormatUint(rep.OS.CacheHits, 10)
			row[10] = strconv.FormatUint(rep.OS.CacheMisses, 10)
		}
		if rep.Middleware != nil {
			var sb, rb uint64
			for _, st := range rep.Middleware.Send {
				sb += st.Bytes
			}
			for _, st := range rep.Middleware.Recv {
				rb += st.Bytes
			}
			row[7] = strconv.FormatUint(sb, 10)
			row[8] = strconv.FormatUint(rb, 10)
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteIfaceCSV emits one row per (component, direction, interface) with the
// middleware-level statistics — the raw material for Figure-4/8-style plots.
func WriteIfaceCSV(w io.Writer, reports map[string]core.ObsReport) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"component", "direction", "interface", "ops", "bytes", "total_us", "mean_us", "max_us",
	}); err != nil {
		return err
	}
	for _, rep := range Sorted(reports) {
		if rep.Middleware == nil {
			continue
		}
		dirs := []struct {
			label string
			m     map[string]core.IfaceStats
		}{{"send", rep.Middleware.Send}, {"recv", rep.Middleware.Recv}}
		for _, d := range dirs {
			names := make([]string, 0, len(d.m))
			for n := range d.m {
				names = append(names, n)
			}
			sort.Strings(names)
			for _, n := range names {
				st := d.m[n]
				if err := cw.Write([]string{
					rep.Component, d.label, n,
					strconv.FormatUint(st.Ops, 10),
					strconv.FormatUint(st.Bytes, 10),
					strconv.FormatInt(st.TotalUS, 10),
					strconv.FormatFloat(st.MeanUS(), 'f', 3, 64),
					strconv.FormatInt(st.MaxUS, 10),
				}); err != nil {
					return err
				}
			}
		}
	}
	cw.Flush()
	return cw.Error()
}
