package replaywl_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"embera/internal/replaywl"
	"embera/internal/trace"
)

// FuzzReadBundle holds the capture-bundle decoder to three promises on any
// input: it never panics, it allocates in proportion to the input however
// large a length or count the bytes claim, and whatever it accepts
// re-encodes through WriteBundle into a canonical form that decodes back
// to the same bundle. The seed corpus in testdata/fuzz/FuzzReadBundle
// replays on every tier-1 run.
func FuzzReadBundle(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		b, err := replaywl.ReadBundle(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if n, limit := after.TotalAlloc-before.TotalAlloc, readAllocLimit(len(data)); n > limit {
			t.Fatalf("reading a %d-byte bundle allocated %d bytes (limit %d)", len(data), n, limit)
		}
		if err != nil {
			return
		}
		var once bytes.Buffer
		if err := replaywl.WriteBundle(&once, b); err != nil {
			t.Fatalf("accepted bundle does not re-encode: %v", err)
		}
		again, err := replaywl.ReadBundle(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded bundle does not decode: %v", err)
		}
		if !reflect.DeepEqual(again.Events, b.Events) {
			t.Fatalf("events changed across WriteBundle→ReadBundle: %d vs %d", len(again.Events), len(b.Events))
		}
		var twice bytes.Buffer
		if err := replaywl.WriteBundle(&twice, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatal("WriteBundle→ReadBundle→WriteBundle is not a fixed point")
		}
	})
}

// readAllocLimit bounds what decoding a bundle may allocate: a constant
// for the decoders' fixed state, plus a multiple of the input for the
// section buffers, the event slice and the manifest's JSON decode.
func readAllocLimit(n int) uint64 { return 64<<10 + 128*uint64(n) }

// bundleSeeds builds the checked-in seed corpus by name: the golden bundle
// and broken variants of it, and bundles whose length prefixes or trace
// counts claim far more than they hold.
func bundleSeeds(t *testing.T) map[string][]byte {
	t.Helper()
	golden, err := os.ReadFile(filepath.Join("testdata", "bundle.golden.emb"))
	if err != nil {
		t.Fatal(err)
	}
	head := func(n uint32) []byte {
		return binary.LittleEndian.AppendUint32([]byte("EMBR\x01"), n)
	}
	// traceBomb is an empty trace whose header claims nStrings strings and
	// nRecs records, wrapped in a bundle with an empty manifest.
	traceBomb := func(nStrings, nRecs uint32) []byte {
		var tr bytes.Buffer
		if err := trace.Write(&tr, nil); err != nil {
			t.Fatal(err)
		}
		hdr := tr.Bytes()
		binary.LittleEndian.PutUint32(hdr[len(hdr)-8:], nStrings)
		binary.LittleEndian.PutUint32(hdr[len(hdr)-4:], nRecs)
		b := append(head(2), "{}"...)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(hdr)))
		return append(b, hdr...)
	}
	badVersion := bytes.Clone(golden)
	badVersion[4]++
	return map[string][]byte{
		"golden":        golden,
		"truncated":     golden[:len(golden)-7],
		"manifest-bomb": head(64 << 20),
		"record-bomb":   traceBomb(0, 1<<20),
		"string-bomb":   traceBomb(1<<24, 0),
		"bad-magic":     append([]byte("EMBX"), golden[4:]...),
		"bad-version":   badVersion,
	}
}

// TestFuzzReadBundleSeedCorpus keeps the checked-in seeds in step with
// bundleSeeds: each must hold exactly the bytes built for its name. Other
// files in the directory are regression inputs the fuzzer found.
// Regenerate with `go test ./internal/replaywl -run
// TestFuzzReadBundleSeedCorpus -update`.
func TestFuzzReadBundleSeedCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzReadBundle")
	if *update {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for name, data := range bundleSeeds(t) {
		path := filepath.Join(dir, name)
		// The go test fuzz v1 encoding of one []byte input.
		want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if *update {
			if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != want {
			t.Errorf("seed %s is missing or stale (run with -update): %v", name, err)
		}
	}
}

// TestReadBundleHostileLengthsAllocateLittle: the 9-byte manifest bomb
// and the bundled 13-byte trace-header bombs fail after allocating for
// the bytes present, not for the megabytes their headers claim.
func TestReadBundleHostileLengthsAllocateLittle(t *testing.T) {
	seeds := bundleSeeds(t)
	for _, name := range []string{"manifest-bomb", "record-bomb", "string-bomb", "truncated"} {
		data := seeds[name]
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := replaywl.ReadBundle(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: accepted", name)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n >= 64<<10 {
			t.Errorf("%s: reading %d bytes allocated %d, want under 64 KiB", name, len(data), n)
		}
	}
}
