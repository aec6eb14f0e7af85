package burstwl

import (
	"runtime"
	"strconv"
	"testing"
)

// FuzzParseSpec holds the burst grammar to three properties on any
// argument: parsing never panics; it allocates within a bound linear in
// the argument; and every argument it accepts, in the seeded or the
// explicit form, yields a spec that passes Validate and whose canonical
// Arg parses back to the same spec, field for field. The seed corpus in
// testdata/fuzz/FuzzParseSpec holds bare seeds around the 1<<62 ceiling,
// every key at both edges of its range, and a malformed argument of each
// kind; tier-1 replays it.
func FuzzParseSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, arg string) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := ParseSpec(arg)
		runtime.ReadMemStats(&after)
		if n, limit := after.TotalAlloc-before.TotalAlloc, parseAllocLimit(len(arg)); n > limit {
			t.Fatalf("parsing a %d-byte argument allocated %d bytes (limit %d)", len(arg), n, limit)
		}
		if err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("ParseSpec(%q) accepted a spec its Validate rejects: %v", arg, err)
		}
		again, err := ParseSpec(s.Arg())
		if err != nil {
			t.Fatalf("ParseSpec(%q) accepted a spec whose Arg %q does not parse: %v", arg, s.Arg(), err)
		}
		if *again != *s {
			t.Fatalf("ParseSpec(%q): Arg round trip changed the spec:\n got %+v\nwant %+v", arg, *again, *s)
		}
	})
}

// parseAllocLimit bounds what parsing an argument may allocate: a constant
// for the seeded form's PRNG and an error message, plus a multiple of the
// argument for its split into key=value pairs.
func parseAllocLimit(argLen int) uint64 { return 16<<10 + 64*uint64(argLen) }

// TestParseSpecSeedCeiling: the seeded form obeys the seed range of the
// explicit one, so a bare seed above 1<<62 is rejected rather than
// accepted into a spec that fails its own Validate.
func TestParseSpecSeedCeiling(t *testing.T) {
	for _, seed := range []uint64{1 << 62, 1<<62 + 1, 1<<63 - 1} {
		arg := strconv.FormatUint(seed, 10)
		s, err := ParseSpec(arg)
		if seed <= 1<<62 {
			if err != nil {
				t.Errorf("%s rejected: %v", arg, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s accepted as %+v", arg, *s)
		}
		if _, err := ParseSpec("seed=" + arg); err == nil {
			t.Errorf("seed=%s accepted", arg)
		}
	}
}
