package wire_test

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"embera/internal/monitor"
	"embera/internal/wire"
)

var update = flag.Bool("update", false, "rewrite the FuzzDecodeFrame seed corpus")

const seedDir = "testdata/fuzz/FuzzDecodeFrame"

// FuzzDecodeFrame holds the frame decoder to three properties on any body:
// decoding never panics; its allocation stays proportional to the body, so
// an oversized declared count is rejected before anything is allocated for
// it; and every body that decodes re-encodes to a frame that decodes to the
// same value. The seed corpus in testdata/fuzz/FuzzDecodeFrame is one frame
// of every type, block and pixel groups included, plus frames declaring
// counts and lengths their bodies cannot hold; tier-1 replays it.
func FuzzDecodeFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var f1 wire.Frame
		err := wire.DecodeFrame(body, &f1)
		runtime.ReadMemStats(&after)
		if n, limit := after.TotalAlloc-before.TotalAlloc, allocLimit(len(body)); n > limit {
			t.Fatalf("decoding a %d-byte body allocated %d bytes (limit %d)", len(body), n, limit)
		}
		if err != nil {
			return
		}
		enc, err := wire.AppendFrame(nil, &f1)
		if err != nil {
			t.Fatalf("decoded frame does not re-encode: %v\n%+v", err, f1)
		}
		var f2 wire.Frame
		if err := wire.DecodeFrame(enc[4:], &f2); err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		again, err := wire.AppendFrame(nil, &f2)
		if err != nil || !bytes.Equal(again, enc) {
			t.Fatalf("encoding is not stable across a round trip (err %v)", err)
		}
		// DeepEqual never equates NaN with itself; frames holding one are
		// covered by the byte comparison above.
		if reflect.DeepEqual(f1, f1) && !reflect.DeepEqual(f1, f2) {
			t.Fatalf("round trip changed the frame:\n got %+v\nwant %+v", f2, f1)
		}
	})
}

// allocLimit bounds what decoding a body may allocate: a constant for the
// frame's fixed parts plus a multiple of the body for what it declares.
func allocLimit(bodyLen int) uint64 { return 256<<10 + 64*uint64(bodyLen) }

// TestFuzzSeedCorpus keeps the generated seeds in step with the codec:
// each must hold exactly the body seedBodies builds for its name. Other
// files in the directory are regression inputs the fuzzer found. Regenerate
// with `go test ./internal/wire -run TestFuzzSeedCorpus -update`.
func TestFuzzSeedCorpus(t *testing.T) {
	for name, body := range seedBodies(t) {
		path := filepath.Join(seedDir, name)
		// The go test fuzz v1 encoding of one []byte input.
		want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", body)
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

// seedBodies builds the seed corpus: one body of every frame type, then
// bodies whose declared count or length overruns what follows it.
func seedBodies(t *testing.T) map[string][]byte {
	rng := rand.New(rand.NewSource(5))
	bg, pg := refGroups(t)
	frames := map[string]wire.Frame{
		"hello":           {Type: wire.TypeHello, Shard: 1},
		"data-scalar":     {Type: wire.TypeData, Edge: 4, Bytes: 64, From: "Source", Payload: uint64(42)},
		"data-blockgroup": {Type: wire.TypeData, Edge: 1, Bytes: int64(bg.PayloadBytes()), From: "Fetch", Payload: bg},
		"data-pixelgroup": {Type: wire.TypeData, Edge: 7, Bytes: int64(pg.PayloadBytes()), From: "IDCT_1", Payload: pg},
		"edgeclose":       {Type: wire.TypeEdgeClose, Edge: 2},
		"windows":         {Type: wire.TypeWindows, Shard: 1, Windows: []monitor.WindowStats{randWindow(rng)}},
		"reports":         {Type: wire.TypeReports, Shard: 0, Units: 24, Checksum: 0x8169cfcc6c2a933e, Reports: randReports(rng)},
		"sharddone":       {Type: wire.TypeShardDone, Shard: 1},
		"terminate":       {Type: wire.TypeTerminate},
		"compkill":        {Type: wire.TypeCompKill, Name: "IDCT_2"},
		"bye":             {Type: wire.TypeBye},
		"error":           {Type: wire.TypeError, Name: "receiving on edge 1: truncated"},
	}
	seeds := make(map[string][]byte)
	for name, f := range frames {
		enc, err := wire.AppendFrame(nil, &f)
		if err != nil {
			t.Fatalf("seed %s: %v", name, err)
		}
		seeds[name] = enc[4:]
	}
	overrun := func(name, from string, at int) {
		b := bytes.Clone(seeds[from])
		binary.LittleEndian.PutUint32(b[at:], 0xFFFFFFFF)
		seeds[name] = b
	}
	overrun("overrun-windows", "windows", 5)   // window count
	overrun("overrun-from", "data-scalar", 13) // From length
	overrun("overrun-name", "compkill", 1)     // component name length
	blocks := len(seeds["data-blockgroup"]) - len(bg.Blocks)*(3*8+64*4) - 4
	overrun("overrun-blocks", "data-blockgroup", blocks)
	pixels := len(seeds["data-pixelgroup"]) - len(pg.Blocks)*(3*8+64) - 4
	overrun("overrun-pixels", "data-pixelgroup", pixels)
	return seeds
}
