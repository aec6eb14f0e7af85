package serve

import (
	"strconv"
	"strings"
	"testing"
)

// TestLabelValuesEscapedOnce: a label value holding a quote, a backslash
// and a newline renders as the Prometheus text format requires — each one
// escaped once, as \", \\ and \n, inside one pair of quotes — so a scraper
// reads back the value itself.
func TestLabelValuesEscapedOnce(t *testing.T) {
	value := "a\"b\\c\nd"
	got := labels("filter", value, "assembly", "a0")
	if want := `{filter="a\"b\\c\nd",assembly="a0"}`; got != want {
		t.Fatalf("labels rendered %s, want %s", got, want)
	}
	quoted := strings.TrimSuffix(strings.TrimPrefix(got, "{filter="), `,assembly="a0"}`)
	if back, err := strconv.Unquote(quoted); err != nil || back != value {
		t.Errorf("a scraper reads %q back (err %v), want %q", back, err, value)
	}
	if strings.Contains(got, "\n") {
		t.Error("a raw newline breaks the exposition line")
	}
}
