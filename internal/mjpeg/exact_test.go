package mjpeg

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// -update rewrites testdata/decode.golden:
//
//	go test ./internal/mjpeg -run TestDecodeGolden -update
//
// Rewrite it only when a change is meant to move decoded pixels, and say
// so: the production kernels are held to the reference ones bit for bit.
var update = flag.Bool("update", false, "rewrite golden files")

// decodeGolden pins the decoded pixels of every goldenStreams entry.
const decodeGolden = "decode.golden"

// goldenStream is one synthesized stream decode.golden pins.
type goldenStream struct {
	name         string
	w, h, frames int
	gray         bool
	opts         EncodeOptions
}

// goldenStreams covers the sampling layouts, restart handling and the
// quality extremes. The first is the reference stream the benchmarks decode
// (128×96, Q75, 4:4:4, 240 pictures).
var goldenStreams = []goldenStream{
	{"ref-444-q75", 128, 96, 240, false, EncodeOptions{Quality: 75}},
	{"420-q90", 136, 72, 20, false, EncodeOptions{Quality: 90, Subsample420: true}},
	{"gray-q80", 136, 72, 20, true, EncodeOptions{Quality: 80}},
	{"rst4-q85", 136, 72, 20, false, EncodeOptions{Quality: 85, RestartInterval: 4}},
	{"q5", 136, 72, 20, false, EncodeOptions{Quality: 5}},
	{"q100", 136, 72, 20, false, EncodeOptions{Quality: 100}},
}

// frame encodes picture n of the stream.
func (s goldenStream) frame(t testing.TB, n int) []byte {
	t.Helper()
	img := SynthFrame(s.w, s.h, n)
	if s.gray {
		gray := NewGray(s.w, s.h)
		for y := 0; y < s.h; y++ {
			for x := 0; x < s.w; x++ {
				r, g, b := img.At(x, y)
				gray.SetRGB(x, y, r, g, b)
			}
		}
		img = gray
	}
	data, err := Encode(img, s.opts)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// digest decodes every picture of s with decode and folds them into one
// FNV-64 digest: each picture hashed with its index and geometry, the
// hashes summed.
func (s goldenStream) digest(t testing.TB, decode func([]byte) (*Image, error)) uint64 {
	t.Helper()
	var sum uint64
	for n := 0; n < s.frames; n++ {
		img, err := decode(s.frame(t, n))
		if err != nil {
			t.Fatalf("%s picture %d: %v", s.name, n, err)
		}
		h := fnv.New64a()
		fmt.Fprintf(h, "%d:%d:%d:%t:", n, img.W, img.H, img.Gray)
		h.Write(img.Pix)
		sum += h.Sum64()
	}
	return sum
}

// TestDecodeGolden pins Decode's pixels on every golden stream to the
// digests in testdata/decode.golden. The small streams are decoded by the
// reference kernels too and must digest identically.
func TestDecodeGolden(t *testing.T) {
	var got bytes.Buffer
	for i, s := range goldenStreams {
		sum := s.digest(t, Decode)
		if i > 0 {
			if ref := s.digest(t, decodeReference); ref != sum {
				t.Errorf("%s: Decode digest %016x, reference kernels %016x", s.name, sum, ref)
			}
		}
		fmt.Fprintf(&got, "%s %dx%d frames=%d %016x\n", s.name, s.w, s.h, s.frames, sum)
	}
	path := filepath.Join("testdata", decodeGolden)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
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
		t.Fatalf("decoded pixels moved:\n--- got\n%s--- want\n%s", got.Bytes(), want)
	}
}

// TestIDCTMatchesDense holds the sparse inverse DCT to the dense one, bit
// for bit, on random blocks of every density, on the degenerate blocks and
// on coefficients across the whole int32 range: DecodeBlockGroup delivers
// full-width coefficients from the wire and TransformBlock's dequantizing
// multiply wraps.
func TestIDCTMatchesDense(t *testing.T) {
	check := func(name string, in [64]int32) {
		t.Helper()
		got, want := in, in
		idct(&got)
		idctDense(&want)
		if got != want {
			t.Fatalf("%s: sparse idct differs from dense\n in  %v\n got %v\nwant %v", name, in, got, want)
		}
	}
	var zero [64]int32
	check("all-zero", zero)
	for _, dc := range []int32{1, -1, 7, -1024, 2047, math.MaxInt32, math.MinInt32} {
		dcOnly := zero
		dcOnly[0] = dc
		check(fmt.Sprintf("dc-only %d", dc), dcOnly)
	}
	// Random blocks almost never put an output within an ulp of a rounding
	// boundary, so they cannot tell one summation order from another.
	// These blocks, found by a random search, can: summing their row pass
	// (first two) or column pass (last two) in descending order moves an
	// output across a boundary.
	for i, terms := range []map[int]int32{
		{4: 600466948, 10: 634496322, 12: 865541601, 22: 587449207, 52: -570696063, 60: 108929706},
		{5: -727986639, 13: -1010693801, 19: -398494048, 21: -310178792, 29: -193831807, 40: 51723307,
			53: -769970299, 61: -253122790},
		{7: -713116566, 15: -593154093, 23: -271152336, 31: 1053324418, 33: 668909285, 39: -60806418,
			43: -305454228, 55: -42393650},
		{0: 401344455, 2: -346488665, 8: 219183901, 24: 274366561, 32: -956982805, 40: 709526425,
			57: -278758415},
	} {
		b := zero
		for at, c := range terms {
			b[at] = c
		}
		check(fmt.Sprintf("order-sensitive %d", i), b)
	}
	rng := rand.New(rand.NewSource(18))
	values := []func() int32{
		func() int32 { return int32(rng.Intn(2047)) - 1023 },   // quantized AC range
		func() int32 { return int32(rng.Intn(1<<20)) - 1<<19 }, // dequantized, |2047×255| < 2^19
		func() int32 { return int32(rng.Uint32()) },            // any int32
		func() int32 {
			return []int32{math.MaxInt32, math.MinInt32, math.MaxInt32 - 1, math.MinInt32 + 1}[rng.Intn(4)]
		},
	}
	for vi, value := range values {
		dense := zero
		for i := range dense {
			dense[i] = value()
			if dense[i] == 0 {
				dense[i] = 1
			}
		}
		check(fmt.Sprintf("dense values %d", vi), dense)
		for nonzero := 0; nonzero <= 64; nonzero++ {
			for trial := 0; trial < 20; trial++ {
				b := zero
				for _, i := range rng.Perm(64)[:nonzero] {
					b[i] = value()
				}
				check(fmt.Sprintf("values %d, %d nonzero", vi, nonzero), b)
			}
		}
	}
}

// forgedFrame is an encoded 16×16 picture whose SOF0 header is patched to
// claim 65535×65535: 201,326,592 blocks, some 56 GB of coefficients, behind
// a scan of under a hundred bytes.
func forgedFrame(t testing.TB) []byte {
	t.Helper()
	frame, err := Encode(SynthFrame(16, 16, 0), EncodeOptions{Quality: 75})
	if err != nil {
		t.Fatal(err)
	}
	sof := bytes.Index(frame, []byte{0xFF, mSOF0})
	if sof < 0 {
		t.Fatal("encoded frame has no SOF0 segment")
	}
	// Marker, length, precision, then height and width, big-endian.
	copy(frame[sof+5:sof+9], []byte{0xFF, 0xFF, 0xFF, 0xFF})
	return frame
}

// TestDecodeRejectsForgedDimensions decodes a frame whose header claims far
// more blocks than its scan can hold: Decode must fail without allocating
// for the claim.
func TestDecodeRejectsForgedDimensions(t *testing.T) {
	data := forgedFrame(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Decode(data)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a 65535×65535 header over a 16×16 scan decoded")
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
		t.Fatalf("rejecting the forged frame allocated %d bytes, want under 1 MB", n)
	}
}

// decodeAllocLimit bounds what Decode may allocate for an n-byte input.
// Every block costs at least two bits of scan, so at most 4n blocks decode.
// A block costs 280 bytes of coefficients, 88 of pixels, 65 of plane and
// seen-map and at most 154 of output image (components sampled 2×1, 1×2
// and 1×1: 768 bytes of RGB over five blocks): under 640 bytes, hence 2560
// per input byte. The headers, the Huffman decoders and their lookup
// tables fit in the fixed 64 KiB.
func decodeAllocLimit(n int) uint64 { return 64<<10 + 2560*uint64(n) }

// FuzzDecode holds the production decoder to the reference kernels on any
// input: no panic; allocation within decodeAllocLimit; and either both
// decoders fail or both succeed with byte-identical pictures. The seed
// corpus in testdata/fuzz/FuzzDecode — a 4:4:4, 4:2:0, grayscale,
// restart-interval and Q100 frame, and the forged-dimension frame — replays
// on every test run.
func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := Decode(data)
		runtime.ReadMemStats(&after)
		if n, limit := after.TotalAlloc-before.TotalAlloc, decodeAllocLimit(len(data)); n > limit {
			t.Fatalf("decoding %d bytes allocated %d bytes (limit %d)", len(data), n, limit)
		}
		want, refErr := decodeReference(data)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("Decode error %v, reference kernels error %v", err, refErr)
		}
		if err != nil {
			return
		}
		if got.W != want.W || got.H != want.H || got.Gray != want.Gray || !bytes.Equal(got.Pix, want.Pix) {
			t.Fatalf("Decode and the reference kernels disagree on a %dx%d picture", want.W, want.H)
		}
	})
}

// fuzzSeedDir holds FuzzDecode's seed corpus.
const fuzzSeedDir = "testdata/fuzz/FuzzDecode"

// fuzzSeeds builds the generated seed corpus, keyed by file name.
func fuzzSeeds(t *testing.T) map[string][]byte {
	seeds := map[string][]byte{"forged-65535x65535": forgedFrame(t)}
	for name, opts := range map[string]EncodeOptions{
		"444-q75":  {Quality: 75},
		"420-q90":  {Quality: 90, Subsample420: true},
		"rst2-q85": {Quality: 85, RestartInterval: 2},
		"q100":     {Quality: 100},
		"gray-q80": {Quality: 80},
		"420-rst1": {Quality: 60, Subsample420: true, RestartInterval: 1},
	} {
		seeds[name] = goldenStream{w: 24, h: 16, gray: name == "gray-q80", opts: opts}.frame(t, 3)
	}
	return seeds
}

// TestFuzzDecodeSeedCorpus keeps the generated seeds in step with the
// encoder: each must hold exactly the frame fuzzSeeds builds for its name.
// Other files in the directory are regression inputs the fuzzer found.
// Regenerate with `go test ./internal/mjpeg -run TestFuzzDecodeSeedCorpus
// -update`.
func TestFuzzDecodeSeedCorpus(t *testing.T) {
	if *update {
		if err := os.MkdirAll(fuzzSeedDir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for name, data := range fuzzSeeds(t) {
		path := filepath.Join(fuzzSeedDir, name)
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
