package report_test

import (
	"bytes"
	"encoding/csv"
	"strings"
	"testing"

	"embera/internal/core"
	"embera/internal/report"
)

func sampleReports() map[string]core.ObsReport {
	return map[string]core.ObsReport{
		"Fetch": {
			Component: "Fetch",
			Level:     core.LevelAll,
			OS:        &core.OSReport{ExecTimeUS: 4084, MemBytes: 8392 * 1024},
			Middleware: &core.MWReport{
				Send: map[string]core.IfaceStats{
					"fetchIdct1": {Ops: 3468, Bytes: 3468 * 4352, TotalUS: 46000, MaxUS: 20},
				},
				Recv: map[string]core.IfaceStats{},
			},
			App: &core.AppReport{SendOps: 10404, State: "done"},
		},
		"Reorder": {
			Component: "Reorder",
			Level:     core.LevelAll,
			OS:        &core.OSReport{ExecTimeUS: 4086, MemBytes: 13308 * 1024, CacheHits: 10, CacheMisses: 3},
			Middleware: &core.MWReport{
				Send: map[string]core.IfaceStats{},
				Recv: map[string]core.IfaceStats{
					"idctReorder": {Ops: 10404, Bytes: 10404 * 2304, TotalUS: 118000, MaxUS: 31},
				},
			},
			App: &core.AppReport{RecvOps: 10404, State: "done"},
		},
	}
}

func TestJSONRoundTrip(t *testing.T) {
	in := sampleReports()
	var buf bytes.Buffer
	if err := report.WriteJSON(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := report.ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("round trip lost reports: %d", len(out))
	}
	f := out["Fetch"]
	if f.OS.ExecTimeUS != 4084 || f.App.SendOps != 10404 {
		t.Errorf("Fetch = %+v", f)
	}
	if f.Middleware.Send["fetchIdct1"].Ops != 3468 {
		t.Error("middleware stats lost")
	}
}

func TestReadJSONRejectsGarbage(t *testing.T) {
	if _, err := report.ReadJSON(strings.NewReader("not json")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := report.ReadJSON(strings.NewReader(`[{"Component": ""}]`)); err == nil {
		t.Error("nameless entry accepted")
	}
}

func TestCSVSummary(t *testing.T) {
	var buf bytes.Buffer
	if err := report.WriteCSV(&buf, sampleReports()); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 { // header + 2 components
		t.Fatalf("rows = %d", len(rows))
	}
	// Sorted: Fetch before Reorder.
	if rows[1][0] != "Fetch" || rows[2][0] != "Reorder" {
		t.Errorf("order = %v, %v", rows[1][0], rows[2][0])
	}
	if rows[1][2] != "4084" || rows[1][5] != "10404" {
		t.Errorf("Fetch row = %v", rows[1])
	}
	if rows[2][10] != "3" { // cache misses
		t.Errorf("Reorder row = %v", rows[2])
	}
}

func TestIfaceCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := report.WriteIfaceCSV(&buf, sampleReports()); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 { // header + fetch send + reorder recv
		t.Fatalf("rows = %d: %v", len(rows), rows)
	}
	if rows[1][1] != "send" || rows[1][2] != "fetchIdct1" {
		t.Errorf("row = %v", rows[1])
	}
	if rows[2][1] != "recv" || rows[2][3] != "10404" {
		t.Errorf("row = %v", rows[2])
	}
}

func TestSortedStable(t *testing.T) {
	in := sampleReports()
	a := report.Sorted(in)
	b := report.Sorted(in)
	for i := range a {
		if a[i].Component != b[i].Component {
			t.Fatal("sort not stable")
		}
	}
}
