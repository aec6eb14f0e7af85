package mjpeg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// The group codecs are the binary form a BlockGroup or PixelGroup takes
// when it crosses a process boundary, as between cluster shards. They carry
// every field the IDCT and Reorder stages read: the group indices, the
// post-parse state of the frame header and every block, coefficients at
// their full int32 width. The header's entropy-decoding state (Huffman
// tables, scan data) stays behind on purpose: only Fetch consumes it, and
// Fetch never receives a group.
//
// Layout, all little-endian:
//
//	FrameIndex, GroupIndex, NumGroups   int64 each
//	Width, Height, RestartInterval      int64 each
//	component count n                   byte, 1 or 3
//	n × ID, H, V, Quant, DCSel, ACSel   byte each
//	quantization tables                 4×64 uint16, raster order
//	block count                         uint32
//	per block: Comp, BX, BY             int64 each, then
//	  (BlockGroup) nonzero mask         uint64, bit k set when
//	                                    coefficient k is nonzero
//	               coefficients         int32 each, the nonzero ones
//	                                    in index order
//	  (PixelGroup) samples              64 bytes
//
// A quantized block is mostly zeros, so a block group carries each block's
// nonzero coefficients only: on the reference stream about a quarter of
// the dense 64 int32s.
//
// Decoding holds the header to the bounds ParseFrame enforces and derives
// its geometry the way ParseFrame does, checks the block count against the
// bytes left before allocating, checks every block's coordinates against
// the header, takes a block's coefficients only from bytes that are there
// and rejects a zero one its mask marks nonzero, and rejects trailing
// bytes.

const (
	quantBytes      = 4 * 64 * 2
	coordBytes      = 3 * 8
	maskBytes       = 8
	minCoeffBlock   = coordBytes + maskBytes // an all-zero block
	pixelBlockBytes = coordBytes + 64
)

// AppendBlockGroup appends the encoding of g to buf. It allocates nothing
// beyond buf's growth.
func AppendBlockGroup(buf []byte, g BlockGroup) ([]byte, error) {
	buf, err := appendGroupHead(buf, g.FrameIndex, g.GroupIndex, g.NumGroups, g.Header, len(g.Blocks))
	if err != nil {
		return nil, err
	}
	for i := range g.Blocks {
		b := &g.Blocks[i]
		buf = appendCoords(buf, b.Comp, b.BX, b.BY)
		at := len(buf)
		buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0) // mask, back-patched below
		var mask uint64
		for k, c := range b.Coeff {
			if c != 0 {
				mask |= 1 << k
				buf = binary.LittleEndian.AppendUint32(buf, uint32(c))
			}
		}
		binary.LittleEndian.PutUint64(buf[at:], mask)
	}
	return buf, nil
}

// DecodeBlockGroup decodes a group AppendBlockGroup encoded. The group owns
// its memory; b is not retained.
func DecodeBlockGroup(b []byte) (BlockGroup, error) {
	r := groupReader{b: b}
	var g BlockGroup
	g.FrameIndex, g.GroupIndex, g.NumGroups, g.Header = r.head()
	n := r.count(minCoeffBlock)
	if r.err != nil {
		return BlockGroup{}, r.err
	}
	g.Blocks = make([]CoeffBlock, n)
	for i := range g.Blocks {
		blk := &g.Blocks[i]
		blk.Comp, blk.BX, blk.BY = r.coords(g.Header)
		var mask uint64
		if p := r.next(maskBytes); p != nil {
			mask = binary.LittleEndian.Uint64(p)
		}
		p := r.next(4 * bits.OnesCount64(mask))
		if r.err != nil {
			return BlockGroup{}, fmt.Errorf("%w (block %d)", r.err, i)
		}
		for ; mask != 0; mask &= mask - 1 {
			k := bits.TrailingZeros64(mask)
			c := int32(binary.LittleEndian.Uint32(p))
			if c == 0 {
				return BlockGroup{}, fmt.Errorf("mjpeg: block %d marks zero coefficient %d nonzero", i, k)
			}
			blk.Coeff[k] = c
			p = p[4:]
		}
	}
	if err := r.end(); err != nil {
		return BlockGroup{}, err
	}
	return g, nil
}

// AppendPixelGroup appends the encoding of g to buf. It allocates nothing
// beyond buf's growth.
func AppendPixelGroup(buf []byte, g PixelGroup) ([]byte, error) {
	buf, err := appendGroupHead(buf, g.FrameIndex, g.GroupIndex, g.NumGroups, g.Header, len(g.Blocks))
	if err != nil {
		return nil, err
	}
	for i := range g.Blocks {
		b := &g.Blocks[i]
		buf = appendCoords(buf, b.Comp, b.BX, b.BY)
		buf = append(buf, b.Pix[:]...)
	}
	return buf, nil
}

// DecodePixelGroup decodes a group AppendPixelGroup encoded. The group owns
// its memory; b is not retained.
func DecodePixelGroup(b []byte) (PixelGroup, error) {
	r := groupReader{b: b}
	var g PixelGroup
	g.FrameIndex, g.GroupIndex, g.NumGroups, g.Header = r.head()
	n := r.count(pixelBlockBytes)
	if r.err != nil {
		return PixelGroup{}, r.err
	}
	g.Blocks = make([]PixelBlock, n)
	for i := range g.Blocks {
		blk := &g.Blocks[i]
		blk.Comp, blk.BX, blk.BY = r.coords(g.Header)
		p := r.next(64)
		if r.err != nil {
			return PixelGroup{}, fmt.Errorf("%w (block %d)", r.err, i)
		}
		copy(blk.Pix[:], p)
	}
	if err := r.end(); err != nil {
		return PixelGroup{}, err
	}
	return g, nil
}

// appendGroupHead encodes everything a group carries before its blocks.
func appendGroupHead(buf []byte, frame, group, groups int, h *FrameHeader, blocks int) ([]byte, error) {
	if h == nil {
		return nil, errors.New("mjpeg: group without a frame header")
	}
	for _, v := range [...]int{frame, group, groups, h.Width, h.Height, h.RestartInterval} {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(v)))
	}
	buf = append(buf, byte(len(h.comps)))
	for _, c := range h.comps {
		buf = append(buf, c.ID, byte(c.H), byte(c.V), c.Quant, c.DCSel, c.ACSel)
	}
	at := len(buf)
	buf = append(buf, make([]byte, quantBytes)...)
	p := buf[at:]
	for t := range h.quant {
		for k, q := range h.quant[t] {
			binary.LittleEndian.PutUint16(p[2*(64*t+k):], q)
		}
	}
	return binary.LittleEndian.AppendUint32(buf, uint32(blocks)), nil
}

func appendCoords(buf []byte, comp, bx, by int) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(comp)))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(bx)))
	return binary.LittleEndian.AppendUint64(buf, uint64(int64(by)))
}

// groupReader is a bounds-checked cursor over an encoded group. The first
// short read or failed check poisons it; every read after that returns
// zero values.
type groupReader struct {
	b   []byte
	err error
}

func (r *groupReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("mjpeg: "+format, args...)
	}
}

func (r *groupReader) next(n int) []byte {
	if r.err == nil && len(r.b) < n {
		r.fail("truncated group: %d bytes left, %d needed", len(r.b), n)
	}
	if r.err != nil {
		return nil
	}
	p := r.b[:n]
	r.b = r.b[n:]
	return p
}

func (r *groupReader) int() int {
	p := r.next(8)
	if p == nil {
		return 0
	}
	return int(int64(binary.LittleEndian.Uint64(p)))
}

// head decodes the group indices and the frame header.
func (r *groupReader) head() (frame, group, groups int, h *FrameHeader) {
	frame, group, groups = r.int(), r.int(), r.int()
	h = &FrameHeader{Width: r.int(), Height: r.int(), RestartInterval: r.int()}
	if h.Width < 1 || h.Width > 0xFFFF || h.Height < 1 || h.Height > 0xFFFF {
		r.fail("frame size %dx%d outside 1..65535", h.Width, h.Height)
	}
	if h.RestartInterval < 0 || h.RestartInterval > 0xFFFF {
		r.fail("restart interval %d outside 0..65535", h.RestartInterval)
	}
	var n int
	if p := r.next(1); p != nil {
		n = int(p[0])
	}
	if r.err == nil && n != 1 && n != 3 {
		r.fail("%d components, want 1 or 3", n)
	}
	if r.err != nil {
		return 0, 0, 0, nil
	}
	h.comps = make([]componentSpec, n)
	for i := range h.comps {
		p := r.next(6)
		if p == nil {
			return 0, 0, 0, nil
		}
		c := componentSpec{ID: p[0], H: int(p[1]), V: int(p[2]), Quant: p[3], DCSel: p[4], ACSel: p[5]}
		if err := c.check(); err != nil {
			r.err = err
			return 0, 0, 0, nil
		}
		h.comps[i] = c
	}
	p := r.next(quantBytes)
	if p == nil {
		return 0, 0, 0, nil
	}
	for t := range h.quant {
		for k := range h.quant[t] {
			h.quant[t][k] = binary.LittleEndian.Uint16(p[2*(64*t+k):])
		}
	}
	h.layout()
	return frame, group, groups, h
}

// count decodes a block count and rejects one the bytes left cannot hold,
// before anything is allocated for it.
func (r *groupReader) count(blockBytes int) int {
	p := r.next(4)
	if p == nil {
		return 0
	}
	n := binary.LittleEndian.Uint32(p)
	if uint64(n) > uint64(len(r.b)/blockBytes) {
		r.fail("group declares %d blocks, %d bytes hold at most %d", n, len(r.b), len(r.b)/blockBytes)
		return 0
	}
	return int(n)
}

// coords decodes a block's component and position and checks them against
// the header's geometry.
func (r *groupReader) coords(h *FrameHeader) (comp, bx, by int) {
	comp, bx, by = r.int(), r.int(), r.int()
	if r.err != nil {
		return 0, 0, 0
	}
	if comp < 0 || comp >= len(h.comps) {
		r.fail("block for component %d of %d", comp, len(h.comps))
		return 0, 0, 0
	}
	c := &h.comps[comp]
	if bx < 0 || bx >= c.blocksX || by < 0 || by >= c.blocksY {
		r.fail("block (%d,%d) outside component %d's %dx%d plane", bx, by, comp, c.blocksX, c.blocksY)
		return 0, 0, 0
	}
	return comp, bx, by
}

// end rejects bytes left over after the last block.
func (r *groupReader) end() error {
	if r.err == nil && len(r.b) != 0 {
		r.fail("%d trailing bytes after the group", len(r.b))
	}
	return r.err
}
