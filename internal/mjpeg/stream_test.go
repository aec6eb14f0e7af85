package mjpeg

import (
	"testing"
)

func synthStream(t *testing.T, w, h, count int, opts EncodeOptions) []byte {
	t.Helper()
	data, err := SynthStream(w, h, count, opts)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestSplitStreamCounts(t *testing.T) {
	data := synthStream(t, 48, 32, 5, EncodeOptions{Quality: 80})
	frames, err := SplitStream(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 5 {
		t.Fatalf("frames = %d, want 5", len(frames))
	}
	// Every frame decodes and has the right geometry.
	for i, f := range frames {
		img, err := Decode(f)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if img.W != 48 || img.H != 32 {
			t.Fatalf("frame %d: %dx%d", i, img.W, img.H)
		}
	}
}

func TestSplitStreamWithRestartMarkers(t *testing.T) {
	// Restart markers put 0xFFDn sequences inside scans; the splitter must
	// not be confused by them.
	data := synthStream(t, 48, 48, 3, EncodeOptions{Quality: 80, RestartInterval: 2})
	frames, err := SplitStream(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 3 {
		t.Fatalf("frames = %d, want 3", len(frames))
	}
}

func TestSplitStreamRejectsGarbage(t *testing.T) {
	if _, err := SplitStream(nil); err == nil {
		t.Error("nil stream accepted")
	}
	if _, err := SplitStream([]byte{1, 2, 3}); err == nil {
		t.Error("garbage accepted")
	}
	good := synthStream(t, 16, 16, 1, EncodeOptions{})
	if _, err := SplitStream(good[:len(good)-2]); err == nil {
		t.Error("truncated stream accepted")
	}
	if _, err := SplitStream(append(good, 0xAB)); err == nil {
		t.Error("trailing garbage accepted")
	}
}

func TestFramesAreIndependent(t *testing.T) {
	// "a stream of independent and individually encoded JPEG images":
	// decoding frame k must not need frame k-1.
	data := synthStream(t, 32, 32, 3, EncodeOptions{Quality: 85})
	frames, err := SplitStream(data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(frames[2]); err != nil {
		t.Fatalf("frame 2 alone: %v", err)
	}
}

func TestStagedPipelineMatchesReferenceDecode(t *testing.T) {
	// Fetch -> IDCT -> Reorder staging must reproduce the monolithic decode
	// bit-for-bit.
	frame, err := Encode(SynthFrame(48, 40, 6), EncodeOptions{Quality: 88})
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
	groups, err := SplitBlocks(0, h, coeffs, 18)
	if err != nil {
		t.Fatal(err)
	}
	asm := NewFrameAssembler()
	var got *Image
	// Deliver groups out of order, as three parallel IDCTs would.
	order := []int{17, 3, 0, 12, 5, 9, 1, 16, 7, 2, 11, 4, 14, 6, 13, 8, 15, 10}
	for _, gi := range order {
		pg := TransformGroup(&groups[gi])
		img, err := asm.Add(&pg)
		if err != nil {
			t.Fatal(err)
		}
		if img != nil {
			got = img
		}
	}
	if got == nil {
		t.Fatal("assembler never completed the frame")
	}
	if MaxAbsDiff(want, got) != 0 {
		t.Error("staged pipeline differs from reference decode")
	}
	if asm.Completed != 1 || asm.PendingFrames() != 0 {
		t.Errorf("assembler state: completed=%d pending=%d", asm.Completed, asm.PendingFrames())
	}
}

func TestSplitBlocksPartition(t *testing.T) {
	frame, err := Encode(SynthFrame(48, 48, 0), EncodeOptions{Quality: 80})
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
	groups, err := SplitBlocks(0, h, coeffs, 18)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 18 {
		t.Fatalf("groups = %d", len(groups))
	}
	total := 0
	for gi, g := range groups {
		if g.GroupIndex != gi || g.NumGroups != 18 || g.Header != h {
			t.Fatalf("group %d metadata wrong", gi)
		}
		if g.PayloadBytes() != len(g.Blocks)*(64*2+8) {
			t.Fatalf("payload bytes wrong")
		}
		total += len(g.Blocks)
	}
	if total != len(coeffs) {
		t.Fatalf("partition lost blocks: %d of %d", total, len(coeffs))
	}
	// Near-equal split: sizes differ by at most one block.
	min, max := len(coeffs), 0
	for _, g := range groups {
		if len(g.Blocks) < min {
			min = len(g.Blocks)
		}
		if len(g.Blocks) > max {
			max = len(g.Blocks)
		}
	}
	if max-min > 1 {
		t.Errorf("unbalanced split: min %d max %d", min, max)
	}
}

func TestSplitBlocksEdgeCases(t *testing.T) {
	frame, _ := Encode(SynthFrame(16, 16, 0), EncodeOptions{})
	h, _ := ParseFrame(frame)
	coeffs, _ := h.DecodeBlocks()
	if _, err := SplitBlocks(0, h, coeffs, 0); err == nil {
		t.Error("zero groups accepted")
	}
	// More groups than blocks degrades gracefully to one block per group.
	groups, err := SplitBlocks(0, h, coeffs, len(coeffs)+50)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != len(coeffs) {
		t.Errorf("groups = %d, want %d", len(groups), len(coeffs))
	}
}

func TestAssemblerRejectsMismatchedGroupCounts(t *testing.T) {
	frame, _ := Encode(SynthFrame(16, 16, 0), EncodeOptions{})
	h, _ := ParseFrame(frame)
	coeffs, _ := h.DecodeBlocks()
	groups, _ := SplitBlocks(0, h, coeffs, 2)
	asm := NewFrameAssembler()
	pg := TransformGroup(&groups[0])
	if _, err := asm.Add(&pg); err != nil {
		t.Fatal(err)
	}
	bad := TransformGroup(&groups[1])
	bad.NumGroups = 7
	if _, err := asm.Add(&bad); err == nil {
		t.Error("mismatched NumGroups accepted")
	}
}

func TestAssembleFrameRejectsBadBlocks(t *testing.T) {
	frame, _ := Encode(SynthFrame(16, 16, 0), EncodeOptions{})
	h, _ := ParseFrame(frame)
	coeffs, _ := h.DecodeBlocks()
	pix := make([]PixelBlock, len(coeffs))
	for i := range coeffs {
		pix[i] = h.TransformBlock(&coeffs[i])
	}
	if _, err := h.AssembleFrame(pix[:len(pix)-1]); err == nil {
		t.Error("missing block accepted")
	}
	dup := append([]PixelBlock(nil), pix...)
	dup[1] = dup[0]
	if _, err := h.AssembleFrame(dup); err == nil {
		t.Error("duplicate block accepted")
	}
	bad := append([]PixelBlock(nil), pix...)
	bad[0].Comp = 9
	if _, err := h.AssembleFrame(bad); err == nil {
		t.Error("unknown component accepted")
	}
	oob := append([]PixelBlock(nil), pix...)
	oob[0].BX = 1 << 20
	if _, err := h.AssembleFrame(oob); err == nil {
		t.Error("out-of-plane block accepted")
	}
}

func TestHeaderGeometry(t *testing.T) {
	frame, _ := Encode(SynthFrame(48, 40, 0), EncodeOptions{Quality: 80})
	h, err := ParseFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	if h.NumComponents() != 3 {
		t.Errorf("components = %d", h.NumComponents())
	}
	mx, my := h.MCUs()
	if mx != 6 || my != 5 { // 48/8 x 40/8 at 4:4:4
		t.Errorf("MCUs = %dx%d", mx, my)
	}
	if h.TotalBlocks() != 6*5*3 {
		t.Errorf("total blocks = %d", h.TotalBlocks())
	}
	if h.ScanBytes() <= 0 {
		t.Error("no scan bytes")
	}
}

func TestSynthFrameDeterministic(t *testing.T) {
	a := SynthFrame(32, 24, 7)
	b := SynthFrame(32, 24, 7)
	if MaxAbsDiff(a, b) != 0 {
		t.Error("SynthFrame not deterministic")
	}
	c := SynthFrame(32, 24, 8)
	if MaxAbsDiff(a, c) == 0 {
		t.Error("consecutive frames identical")
	}
}

func TestSynthStreamDeterministic(t *testing.T) {
	a := synthStream(t, 24, 24, 3, EncodeOptions{Quality: 77})
	b := synthStream(t, 24, 24, 3, EncodeOptions{Quality: 77})
	if len(a) != len(b) {
		t.Fatal("stream lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("streams differ")
		}
	}
}

// TestAssemblerOneBufferPerPicture: the first group of a picture, whichever
// arrives first, sizes the block buffer for the whole frame, so folding in
// the other groups never moves it.
func TestAssemblerOneBufferPerPicture(t *testing.T) {
	_, groups := wireGroups(t, SynthFrame(48, 40, 6), EncodeOptions{Quality: 88}, 7)
	for _, first := range []int{0, len(groups) - 1} {
		asm := NewFrameAssembler()
		pg := TransformGroup(&groups[first])
		if _, err := asm.Add(&pg); err != nil {
			t.Fatal(err)
		}
		st := asm.pending[3]
		if cap(st.blocks) != st.header.TotalBlocks() {
			t.Fatalf("first group %d: buffer holds %d blocks, frame has %d", first, cap(st.blocks), st.header.TotalBlocks())
		}
		buf := &st.blocks[0]
		var img *Image
		for gi := range groups {
			if gi == first {
				continue
			}
			if &st.blocks[0] != buf {
				t.Fatalf("first group %d: buffer moved before group %d", first, gi)
			}
			pg := TransformGroup(&groups[gi])
			var err error
			if img, err = asm.Add(&pg); err != nil {
				t.Fatal(err)
			}
		}
		if img == nil {
			t.Fatalf("first group %d: the picture never completed", first)
		}
	}
}
