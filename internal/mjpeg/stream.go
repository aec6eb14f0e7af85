package mjpeg

import (
	"errors"
	"fmt"
)

// Motion-JPEG: "a stream of independent and individually encoded JPEG
// images" — the container is simply concatenated JFIF images.

// SplitStream slices a concatenated-JPEG stream into individual frames.
// Frame boundaries are found by walking markers (length-prefixed segments,
// byte-stuffed scans), never by naive byte search, so 0xFFD9 inside entropy
// data cannot split a frame early.
func SplitStream(data []byte) ([][]byte, error) {
	var frames [][]byte
	pos := 0
	for pos < len(data) {
		if pos+2 > len(data) || data[pos] != 0xFF || data[pos+1] != mSOI {
			return nil, fmt.Errorf("mjpeg: frame %d: expected SOI at offset %d", len(frames), pos)
		}
		end, err := frameEnd(data[pos:])
		if err != nil {
			return nil, fmt.Errorf("mjpeg: frame %d: %w", len(frames), err)
		}
		frames = append(frames, data[pos:pos+end])
		pos += end
	}
	if len(frames) == 0 {
		return nil, errors.New("mjpeg: empty stream")
	}
	return frames, nil
}

// frameEnd returns the byte length of the JFIF image starting at data[0].
func frameEnd(data []byte) (int, error) {
	pos := 2 // past SOI
	inScan := false
	for pos < len(data) {
		if !inScan {
			if pos+2 > len(data) || data[pos] != 0xFF {
				return 0, fmt.Errorf("expected marker at offset %d", pos)
			}
			m := data[pos+1]
			pos += 2
			switch {
			case m == mEOI:
				return pos, nil
			case m == mSOS:
				if pos+2 > len(data) {
					return 0, errors.New("truncated SOS")
				}
				segLen := int(data[pos])<<8 | int(data[pos+1])
				pos += segLen
				inScan = true
			case m == 0x01 || (m >= 0xD0 && m <= 0xD7):
				// Standalone markers: no length field.
			default:
				if pos+2 > len(data) {
					return 0, errors.New("truncated segment")
				}
				segLen := int(data[pos])<<8 | int(data[pos+1])
				if segLen < 2 {
					return 0, fmt.Errorf("bad segment length %d", segLen)
				}
				pos += segLen
			}
			continue
		}
		// Inside entropy data: skip to the next true marker.
		if data[pos] != 0xFF {
			pos++
			continue
		}
		if pos+1 >= len(data) {
			return 0, errors.New("truncated scan")
		}
		m := data[pos+1]
		switch {
		case m == 0x00 || (m >= 0xD0 && m <= 0xD7):
			pos += 2 // stuffing or restart: still in scan
		case m == mEOI:
			return pos + 2, nil
		default:
			return 0, fmt.Errorf("unexpected marker 0x%02X inside scan", m)
		}
	}
	return 0, errors.New("missing EOI")
}

// BlockGroup is the unit of work flowing between EMBera components: a
// contiguous slice of a frame's coefficient blocks plus the shared frame
// header. The paper's decoder divides "each individual image in smaller
// blocks" and Fetch distributes them round-robin to the IDCT components.
type BlockGroup struct {
	FrameIndex int
	GroupIndex int
	NumGroups  int
	Header     *FrameHeader
	Blocks     []CoeffBlock
}

// PayloadBytes estimates the wire size of the group: coefficient data plus
// per-block coordinates. Used to charge transfer costs in the platforms.
func (g *BlockGroup) PayloadBytes() int {
	return len(g.Blocks) * (64*2 + 8) // 16-bit coefficients + header
}

// SplitBlocks partitions a frame's blocks into numGroups near-equal
// contiguous groups (the Fetch component's message granularity).
func SplitBlocks(frameIndex int, h *FrameHeader, blocks []CoeffBlock, numGroups int) ([]BlockGroup, error) {
	if numGroups <= 0 {
		return nil, fmt.Errorf("mjpeg: numGroups %d must be positive", numGroups)
	}
	if numGroups > len(blocks) {
		numGroups = len(blocks)
	}
	groups := make([]BlockGroup, 0, numGroups)
	for gi := 0; gi < numGroups; gi++ {
		lo := gi * len(blocks) / numGroups
		hi := (gi + 1) * len(blocks) / numGroups
		groups = append(groups, BlockGroup{
			FrameIndex: frameIndex,
			GroupIndex: gi,
			NumGroups:  numGroups,
			Header:     h,
			Blocks:     blocks[lo:hi],
		})
	}
	return groups, nil
}

// PixelGroup is the IDCT component's output for one BlockGroup.
type PixelGroup struct {
	FrameIndex int
	GroupIndex int
	NumGroups  int
	Header     *FrameHeader
	Blocks     []PixelBlock
}

// PayloadBytes estimates the wire size of the transformed group.
func (g *PixelGroup) PayloadBytes() int {
	return len(g.Blocks) * (64 + 8)
}

// TransformGroup applies the IDCT stage to every block of a group.
func TransformGroup(g *BlockGroup) PixelGroup {
	out := PixelGroup{
		FrameIndex: g.FrameIndex,
		GroupIndex: g.GroupIndex,
		NumGroups:  g.NumGroups,
		Header:     g.Header,
		Blocks:     make([]PixelBlock, len(g.Blocks)),
	}
	for i := range g.Blocks {
		out.Blocks[i] = g.Header.TransformBlock(&g.Blocks[i])
	}
	return out
}

// FrameAssembler accumulates PixelGroups until a frame is complete, then
// yields the reconstructed image — the Reorder component's state machine.
// Groups may arrive out of order (they come from parallel IDCT components).
type FrameAssembler struct {
	pending map[int]*frameState
	// Completed counts frames fully reassembled.
	Completed int
}

type frameState struct {
	header   *FrameHeader
	groups   int
	expected int
	blocks   []PixelBlock
}

// NewFrameAssembler returns an empty assembler.
func NewFrameAssembler() *FrameAssembler {
	return &FrameAssembler{pending: make(map[int]*frameState)}
}

// Add folds one group in. When the group completes its frame, Add returns
// the assembled image and true.
func (a *FrameAssembler) Add(g *PixelGroup) (*Image, error) {
	st := a.pending[g.FrameIndex]
	if st == nil {
		st = &frameState{header: g.Header, expected: g.NumGroups}
		// One buffer per picture, sized for the whole frame from its first
		// group, unless the header claims more blocks than NumGroups
		// groups about this one's size can carry.
		if n := g.Header.TotalBlocks(); g.NumGroups > 0 && g.NumGroups <= n && n <= (len(g.Blocks)+1)*g.NumGroups {
			st.blocks = make([]PixelBlock, 0, n)
		}
		a.pending[g.FrameIndex] = st
	}
	if g.NumGroups != st.expected {
		return nil, fmt.Errorf("mjpeg: frame %d group count mismatch (%d vs %d)",
			g.FrameIndex, g.NumGroups, st.expected)
	}
	st.blocks = append(st.blocks, g.Blocks...)
	st.groups++
	if st.groups < st.expected {
		return nil, nil
	}
	delete(a.pending, g.FrameIndex)
	img, err := st.header.AssembleFrame(st.blocks)
	if err != nil {
		return nil, err
	}
	a.Completed++
	return img, nil
}

// PendingFrames reports frames with at least one group still missing.
func (a *FrameAssembler) PendingFrames() int { return len(a.pending) }
