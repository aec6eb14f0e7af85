package mjpeg

import (
	"encoding/binary"
	"math"
	"reflect"
	"strings"
	"testing"
)

// wireGroups parses and entropy-decodes one picture and splits it into
// groups the way Fetch does.
func wireGroups(t *testing.T, img *Image, opts EncodeOptions, n int) (*Image, []BlockGroup) {
	t.Helper()
	frame, err := Encode(img, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	h, err := ParseFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	coeffs, err := h.DecodeBlocks()
	if err != nil {
		t.Fatal(err)
	}
	groups, err := SplitBlocks(3, h, coeffs, n)
	if err != nil {
		t.Fatal(err)
	}
	return want, groups
}

// TestGroupCodecStagedPipeline stages Fetch → IDCT → Reorder with every
// group crossing the codec on each hop, as on the cluster platform: every
// block must survive exactly and the picture must match the reference
// decode bit for bit, in every sampling layout the decoder supports.
func TestGroupCodecStagedPipeline(t *testing.T) {
	gray := NewGray(40, 24)
	for i := range gray.Pix {
		gray.Pix[i] = byte(i * 7)
	}
	cases := []struct {
		name string
		img  *Image
		opts EncodeOptions
	}{
		{"444", SynthFrame(48, 40, 6), EncodeOptions{Quality: 88}},
		{"420", SynthFrame(50, 34, 2), EncodeOptions{Quality: 70, Subsample420: true}},
		{"gray", gray, EncodeOptions{Quality: 90}},
		{"restart", SynthFrame(48, 48, 1), EncodeOptions{Quality: 80, RestartInterval: 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, groups := wireGroups(t, tc.img, tc.opts, 7)
			asm := NewFrameAssembler()
			var got *Image
			for gi := len(groups) - 1; gi >= 0; gi-- {
				enc, err := AppendBlockGroup(nil, groups[gi])
				if err != nil {
					t.Fatal(err)
				}
				bg, err := DecodeBlockGroup(enc)
				if err != nil {
					t.Fatal(err)
				}
				if bg.FrameIndex != 3 || bg.GroupIndex != gi || bg.NumGroups != len(groups) {
					t.Fatalf("group %d indices: %d/%d/%d", gi, bg.FrameIndex, bg.GroupIndex, bg.NumGroups)
				}
				if !reflect.DeepEqual(bg.Blocks, groups[gi].Blocks) {
					t.Fatalf("group %d: blocks changed crossing the codec", gi)
				}
				h, src := bg.Header, groups[gi].Header
				if h.Width != src.Width || h.Height != src.Height || h.RestartInterval != src.RestartInterval ||
					!reflect.DeepEqual(h.comps, src.comps) || h.quant != src.quant ||
					h.maxH != src.maxH || h.maxV != src.maxV || h.mcusX != src.mcusX || h.mcusY != src.mcusY {
					t.Fatalf("group %d: post-parse header state changed crossing the codec", gi)
				}
				pgSrc := TransformGroup(&bg)
				enc, err = AppendPixelGroup(enc[:0], pgSrc)
				if err != nil {
					t.Fatal(err)
				}
				pg, err := DecodePixelGroup(enc)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(pg.Blocks, pgSrc.Blocks) {
					t.Fatalf("group %d: pixels changed crossing the codec", gi)
				}
				img, err := asm.Add(&pg)
				if err != nil {
					t.Fatal(err)
				}
				if img != nil {
					got = img
				}
			}
			if got == nil || MaxAbsDiff(want, got) != 0 {
				t.Fatal("picture decoded across the codec differs from the reference decode")
			}
		})
	}
}

// TestGroupCodecFullCoefficients: coefficients cross at their full int32
// width, extremes included.
func TestGroupCodecFullCoefficients(t *testing.T) {
	_, groups := wireGroups(t, SynthFrame(16, 16, 0), EncodeOptions{}, 1)
	g := groups[0]
	g.Blocks = append([]CoeffBlock(nil), g.Blocks...)
	g.Blocks[0].Coeff[0] = math.MaxInt32
	g.Blocks[0].Coeff[1] = math.MinInt32
	g.Blocks[0].Coeff[63] = -1
	enc, err := AppendBlockGroup(nil, g)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeBlockGroup(enc)
	if err != nil {
		t.Fatal(err)
	}
	if back.Blocks[0].Coeff != g.Blocks[0].Coeff {
		t.Errorf("coefficients %v came back %v", g.Blocks[0].Coeff[:2], back.Blocks[0].Coeff[:2])
	}
}

// TestGroupCodecRejects: every strict prefix and a trailing byte are
// errors; so are a block count the bytes cannot hold, header fields outside
// what ParseFrame accepts, and blocks outside the header's geometry.
func TestGroupCodecRejects(t *testing.T) {
	_, groups := wireGroups(t, SynthFrame(32, 16, 4), EncodeOptions{Quality: 60}, 2)
	g := groups[1]
	enc, err := AppendBlockGroup(nil, g)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(enc); cut++ {
		if _, err := DecodeBlockGroup(enc[:cut]); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded cleanly", cut, len(enc))
		}
	}
	pix, err := AppendPixelGroup(nil, TransformGroup(&g))
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(pix); cut++ {
		if _, err := DecodePixelGroup(pix[:cut]); err == nil {
			t.Fatalf("pixel prefix of %d/%d bytes decoded cleanly", cut, len(pix))
		}
	}

	head := 6*8 + 1 + 3*6 + quantBytes // bytes before the block count
	last := &g.Blocks[len(g.Blocks)-1]
	lastMask := len(enc) - 4*nonzero(last) - maskBytes // the last block's mask
	if nonzero(last) < 2 {
		t.Fatal("the last block needs two nonzero coefficients")
	}
	patch := func(at int, v uint64, width int) []byte {
		b := append([]byte(nil), enc...)
		if width == 8 {
			binary.LittleEndian.PutUint64(b[at:], v)
		} else {
			b[at] = byte(v)
		}
		return b
	}
	cases := []struct {
		name string
		body []byte
		want string
	}{
		{"trailing byte", append(append([]byte(nil), enc...), 0), "trailing"},
		{"width", patch(3*8, 70000, 8), "frame size"},
		{"restart interval", patch(5*8, 1<<20, 8), "restart interval"},
		{"component count", patch(6*8, 2, 1), "components"},
		{"sampling factor", patch(6*8+1+1, 3, 1), "sampling factor"},
		{"quant selector", patch(6*8+1+3, 4, 1), "quant selector"},
		{"block count", append(append(append([]byte(nil), enc[:head]...), 0xFF, 0xFF, 0xFF, 0x7F), enc[head+4:]...), "declares"},
		{"block component", patch(head+4, 3, 8), "component"},
		{"block position", patch(head+4+8, 1<<40, 8), "outside"},
		{"mask overruns", patch(lastMask, math.MaxUint64, 8), "truncated"},
		{"zero marked nonzero", patch(lastMask+8, 0, 8), "marks zero coefficient"},
	}
	for _, tc := range cases {
		if _, err := DecodeBlockGroup(tc.body); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v does not say %q", tc.name, err, tc.want)
		}
	}
	if _, err := AppendBlockGroup(nil, BlockGroup{}); err == nil {
		t.Error("a group without a frame header encoded")
	}
}

// nonzero counts a block's nonzero coefficients.
func nonzero(b *CoeffBlock) int {
	n := 0
	for _, c := range b.Coeff {
		if c != 0 {
			n++
		}
	}
	return n
}

// TestBlockGroupSparseSize: a block costs its coordinates, its mask and
// four bytes per nonzero coefficient, so an all-zero block takes 32 bytes
// and a dense one 288.
func TestBlockGroupSparseSize(t *testing.T) {
	_, groups := wireGroups(t, SynthFrame(32, 16, 4), EncodeOptions{Quality: 60}, 1)
	g := groups[0]
	g.Blocks = append([]CoeffBlock(nil), g.Blocks...)
	g.Blocks[0].Coeff = [64]int32{}
	for k := range g.Blocks[1].Coeff {
		g.Blocks[1].Coeff[k] = int32(k) - 100
	}
	empty, err := AppendBlockGroup(nil, BlockGroup{Header: g.Header})
	if err != nil {
		t.Fatal(err)
	}
	want := len(empty)
	for i := range g.Blocks {
		want += coordBytes + maskBytes + 4*nonzero(&g.Blocks[i])
	}
	enc, err := AppendBlockGroup(nil, g)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) != want {
		t.Errorf("group encodes to %d bytes, want %d", len(enc), want)
	}
	back, err := DecodeBlockGroup(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Blocks, g.Blocks) {
		t.Error("blocks changed crossing the codec")
	}
	if nonzero(&g.Blocks[0]) != 0 || nonzero(&g.Blocks[1]) != 64 {
		t.Fatal("the group lost its all-zero or its dense block")
	}
}
