package wire_test

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"embera/internal/mjpeg"
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

// TestBadSeedsFailForTheirReason: each seed that declares more than its
// body holds, or trails bytes past its group, is rejected for that reason
// and not for an accident of how it was built.
func TestBadSeedsFailForTheirReason(t *testing.T) {
	seeds := seedBodies(t)
	for name, want := range map[string]string{
		"overrun-windows": "cannot fit",
		"overrun-from":    "truncated frame",
		"overrun-name":    "truncated frame",
		"overrun-ledger":  "cannot fit",
		"overrun-blocks":  "declares",
		"overrun-mask":    "truncated group",
		"trailing-group":  "trailing bytes after the group",
		"overrun-pixels":  "declares",
		"empty-bucket":    "marks empty bucket",
	} {
		var f wire.Frame
		if err := wire.DecodeFrame(seeds[name], &f); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("seed %s: error %v does not say %q", name, err, want)
		}
	}
}

// seedBodies builds the seed corpus: one body of every frame type, then
// bodies whose declared count or length overruns what follows it.
func seedBodies(t *testing.T) map[string][]byte {
	rng := rand.New(rand.NewSource(5))
	bg, pg := refGroups(t)
	window := randWindow(rng)
	sparse := sparseWindow()
	reports := wire.Frame{
		Type: wire.TypeReports, Shard: 0, Units: 24, Checksum: 0x8169cfcc6c2a933e,
		Ledger:  []wire.EdgeCount{{Edge: 1, Sent: 432}, {Edge: 7, Received: 432}},
		Inbound: wire.QueueDepth{}, InboundPeak: wire.QueueDepth{Frames: 58, Bytes: 189212},
		Reports: randReports(rng),
	}
	frames := map[string]wire.Frame{
		"hello":           {Type: wire.TypeHello, Shard: 1},
		"data-scalar":     {Type: wire.TypeData, Edge: 4, Bytes: 64, From: "Source", Payload: uint64(42)},
		"data-blockgroup": {Type: wire.TypeData, Edge: 1, Bytes: int64(bg.PayloadBytes()), From: "Fetch", Payload: bg},
		"data-pixelgroup": {Type: wire.TypeData, Edge: 7, Bytes: int64(pg.PayloadBytes()), From: "IDCT_1", Payload: pg},
		"edgeclose":       {Type: wire.TypeEdgeClose, Edge: 2},
		"windows":         {Type: wire.TypeWindows, Shard: 1, Windows: []monitor.WindowStats{window}},
		"windows-sparse":  {Type: wire.TypeWindows, Shard: 1, Windows: []monitor.WindowStats{sparse}},
		"reports":         reports,
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
	overrun("overrun-ledger", "reports", 21)   // ledger edge count

	// The sparse window's first depth bucket count, zeroed under its mask
	// bit: past the type, shard, window count, name and eleven fields, and
	// the depth histogram's mask.
	b := bytes.Clone(seeds["windows-sparse"])
	binary.LittleEndian.PutUint64(b[1+4+4+4+len(sparse.Component)+11*8+8:], 0)
	seeds["empty-bucket"] = b

	// A group's blocks are its encoding past the encoding of the same
	// group with none; the block count sits just before them, and the
	// group's own length just before the whole group.
	group, err := mjpeg.AppendBlockGroup(nil, bg)
	if err != nil {
		t.Fatal(err)
	}
	head, err := mjpeg.AppendBlockGroup(nil, mjpeg.BlockGroup{Header: bg.Header})
	if err != nil {
		t.Fatal(err)
	}
	body := seeds["data-blockgroup"]
	overrun("overrun-blocks", "data-blockgroup", len(body)-(len(group)-len(head))-4)
	// The last block's nonzero mask, with every bit set: its popcount
	// asks for more coefficients than the bytes left hold.
	last := len(body) - 4*nonzero(&bg.Blocks[len(bg.Blocks)-1]) - 8
	b = bytes.Clone(body)
	binary.LittleEndian.PutUint64(b[last:], math.MaxUint64)
	seeds["overrun-mask"] = b
	// The group's length grown by three bytes that follow its last block.
	b = binary.LittleEndian.AppendUint32(bytes.Clone(body[:len(body)-len(group)-4]), uint32(len(group)+3))
	seeds["trailing-group"] = append(append(b, group...), 1, 2, 3)

	pixels := len(seeds["data-pixelgroup"]) - len(pg.Blocks)*(3*8+64) - 4
	overrun("overrun-pixels", "data-pixelgroup", pixels)
	return seeds
}

// sparseWindow is a window as a busy server closes one: its histograms
// fill only a few buckets.
func sparseWindow() monitor.WindowStats {
	w := monitor.WindowStats{
		Component: "s3", StartUS: 10_000, EndUS: 20_000, CoveredUS: 10_000, Samples: 10,
		SendOps: 812, RecvOps: 812, DeltaSendOps: 81, DeltaRecvOps: 81,
		SendRate: 8100, RecvRate: 8100, DepthHigh: 1, MemHigh: 9216,
	}
	for _, d := range []int64{0, 0, 1, 0, 1, 1, 0, 1, 0, 0} {
		w.DepthHist.Observe(d)
	}
	for _, us := range []int64{3, 5, 4, 40} {
		w.LatencyHist.Observe(us)
	}
	return w
}

// nonzero counts a block's nonzero coefficients.
func nonzero(b *mjpeg.CoeffBlock) int {
	n := 0
	for _, c := range b.Coeff {
		if c != 0 {
			n++
		}
	}
	return n
}
