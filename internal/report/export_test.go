package report

import (
	"encoding/json"
	"fmt"
	"io"

	"embera/internal/core"
)

// ReadJSON parses reports written by WriteJSON, keyed by component: the
// tests' way back from the JSON export.
func ReadJSON(r io.Reader) (map[string]core.ObsReport, error) {
	var list []core.ObsReport
	if err := json.NewDecoder(r).Decode(&list); err != nil {
		return nil, fmt.Errorf("report: %w", err)
	}
	out := make(map[string]core.ObsReport, len(list))
	for _, rep := range list {
		if rep.Component == "" {
			return nil, fmt.Errorf("report: entry without component name")
		}
		out[rep.Component] = rep
	}
	return out, nil
}
