package mjpeg

import (
	"errors"
	"fmt"
)

// JPEG marker bytes (second byte after 0xFF).
const (
	mSOI  = 0xD8
	mEOI  = 0xD9
	mSOF0 = 0xC0
	mDHT  = 0xC4
	mDQT  = 0xDB
	mDRI  = 0xDD
	mSOS  = 0xDA
	mAPP0 = 0xE0
	mCOM  = 0xFE
)

// componentSpec describes one color component of a frame.
type componentSpec struct {
	ID               byte
	H, V             int  // sampling factors
	Quant            byte // quantization table selector
	DCSel            byte // DC Huffman table selector (from SOS)
	ACSel            byte // AC Huffman table selector (from SOS)
	blocksX, blocksY int  // block geometry of this component's plane
}

// FrameHeader carries everything needed to entropy-decode and reconstruct
// one baseline JPEG frame. It is produced by ParseFrame (the Fetch stage)
// and travels with every BlockGroup.
type FrameHeader struct {
	Width, Height   int
	RestartInterval int

	comps []componentSpec
	quant [4][64]uint16 // raster order
	dcDec [4]*huffDecoder
	acDec [4]*huffDecoder

	maxH, maxV   int
	mcusX, mcusY int

	scan []byte // entropy-coded data (byte-stuffed)
}

// NumComponents returns the component count (1 = grayscale, 3 = YCbCr).
func (h *FrameHeader) NumComponents() int { return len(h.comps) }

// MCUs returns the MCU grid geometry.
func (h *FrameHeader) MCUs() (x, y int) { return h.mcusX, h.mcusY }

// TotalBlocks returns the number of 8x8 coefficient blocks in the frame.
func (h *FrameHeader) TotalBlocks() int {
	per := 0
	for _, c := range h.comps {
		per += c.H * c.V
	}
	return h.mcusX * h.mcusY * per
}

// ScanBytes returns the length of the entropy-coded data, a proxy for the
// Huffman-decode work of the Fetch stage.
func (h *FrameHeader) ScanBytes() int { return len(h.scan) }

// ParseFrame reads the marker segments of one JFIF image and returns its
// header with the entropy-coded scan attached. This is the file-management
// half of the Fetch component.
func ParseFrame(data []byte) (*FrameHeader, error) {
	if len(data) < 4 || data[0] != 0xFF || data[1] != mSOI {
		return nil, errors.New("mjpeg: missing SOI marker")
	}
	h := &FrameHeader{}
	var dcSpec, acSpec [4]*huffSpec
	pos := 2
	for {
		if pos+4 > len(data) {
			return nil, errors.New("mjpeg: truncated marker stream")
		}
		if data[pos] != 0xFF {
			return nil, fmt.Errorf("mjpeg: expected marker at offset %d, found 0x%02X", pos, data[pos])
		}
		marker := data[pos+1]
		pos += 2
		if marker == mEOI {
			return nil, errors.New("mjpeg: EOI before SOS")
		}
		segLen := int(data[pos])<<8 | int(data[pos+1])
		if segLen < 2 || pos+segLen > len(data) {
			return nil, fmt.Errorf("mjpeg: bad segment length %d for marker 0x%02X", segLen, marker)
		}
		seg := data[pos+2 : pos+segLen]
		pos += segLen

		switch marker {
		case mDQT:
			if err := h.parseDQT(seg); err != nil {
				return nil, err
			}
		case mSOF0:
			if err := h.parseSOF0(seg); err != nil {
				return nil, err
			}
		case mDHT:
			if err := parseDHT(seg, &dcSpec, &acSpec); err != nil {
				return nil, err
			}
		case mDRI:
			if len(seg) != 2 {
				return nil, errors.New("mjpeg: bad DRI segment")
			}
			h.RestartInterval = int(seg[0])<<8 | int(seg[1])
		case mSOS:
			if err := h.parseSOS(seg); err != nil {
				return nil, err
			}
			// Build decoders for the tables the scan actually selects.
			for i := range h.comps {
				for _, sel := range []struct {
					id   byte
					spec *huffSpec
					dst  *[4]*huffDecoder
					kind string
				}{
					{h.comps[i].DCSel, dcSpec[h.comps[i].DCSel&3], &h.dcDec, "DC"},
					{h.comps[i].ACSel, acSpec[h.comps[i].ACSel&3], &h.acDec, "AC"},
				} {
					if sel.id > 3 {
						return nil, fmt.Errorf("mjpeg: %s table selector %d out of range", sel.kind, sel.id)
					}
					if dst := sel.dst; dst[sel.id] == nil {
						if sel.spec == nil {
							return nil, fmt.Errorf("mjpeg: scan selects undefined %s table %d", sel.kind, sel.id)
						}
						dec, err := newHuffDecoder(*sel.spec)
						if err != nil {
							return nil, err
						}
						dst[sel.id] = dec
					}
				}
			}
			h.scan = data[pos:]
			return h, nil
		case mSOI:
			return nil, errors.New("mjpeg: nested SOI")
		default:
			// APPn / COM and other segments are skipped.
			if marker >= 0xC1 && marker <= 0xCF && marker != mDHT {
				return nil, fmt.Errorf("mjpeg: unsupported SOF marker 0x%02X (baseline only)", marker)
			}
		}
	}
}

func (h *FrameHeader) parseDQT(seg []byte) error {
	for len(seg) > 0 {
		pq := seg[0] >> 4
		tq := seg[0] & 0x0F
		if pq != 0 {
			return errors.New("mjpeg: 16-bit quantization tables not supported (baseline)")
		}
		if tq > 3 {
			return fmt.Errorf("mjpeg: quantization table id %d out of range", tq)
		}
		if len(seg) < 65 {
			return errors.New("mjpeg: truncated DQT segment")
		}
		for zz := 0; zz < 64; zz++ {
			h.quant[tq][zigzag[zz]] = uint16(seg[1+zz])
		}
		seg = seg[65:]
	}
	return nil
}

func (h *FrameHeader) parseSOF0(seg []byte) error {
	if len(seg) < 6 {
		return errors.New("mjpeg: truncated SOF0")
	}
	if seg[0] != 8 {
		return fmt.Errorf("mjpeg: sample precision %d not supported", seg[0])
	}
	h.Height = int(seg[1])<<8 | int(seg[2])
	h.Width = int(seg[3])<<8 | int(seg[4])
	n := int(seg[5])
	if n != 1 && n != 3 {
		return fmt.Errorf("mjpeg: %d components not supported (1 or 3)", n)
	}
	if h.Width == 0 || h.Height == 0 {
		return errors.New("mjpeg: zero image dimension")
	}
	if len(seg) < 6+3*n {
		return errors.New("mjpeg: truncated SOF0 component list")
	}
	for i := 0; i < n; i++ {
		c := componentSpec{
			ID:    seg[6+3*i],
			H:     int(seg[7+3*i] >> 4),
			V:     int(seg[7+3*i] & 0x0F),
			Quant: seg[8+3*i],
		}
		if err := c.check(); err != nil {
			return err
		}
		h.comps = append(h.comps, c)
	}
	h.layout()
	return nil
}

// check holds a component to the sampling factors and quantization table
// selectors the decoder supports.
func (c *componentSpec) check() error {
	if c.H < 1 || c.H > 2 || c.V < 1 || c.V > 2 {
		return fmt.Errorf("mjpeg: sampling factor %dx%d outside supported 1..2", c.H, c.V)
	}
	if c.Quant > 3 {
		return fmt.Errorf("mjpeg: quant selector %d out of range", c.Quant)
	}
	return nil
}

// layout derives the MCU grid and every component's block grid from the
// frame size and the sampling factors.
func (h *FrameHeader) layout() {
	for _, c := range h.comps {
		if c.H > h.maxH {
			h.maxH = c.H
		}
		if c.V > h.maxV {
			h.maxV = c.V
		}
	}
	h.mcusX = (h.Width + 8*h.maxH - 1) / (8 * h.maxH)
	h.mcusY = (h.Height + 8*h.maxV - 1) / (8 * h.maxV)
	for i := range h.comps {
		h.comps[i].blocksX = h.mcusX * h.comps[i].H
		h.comps[i].blocksY = h.mcusY * h.comps[i].V
	}
}

func parseDHT(seg []byte, dcSpec, acSpec *[4]*huffSpec) error {
	for len(seg) > 0 {
		if len(seg) < 17 {
			return errors.New("mjpeg: truncated DHT segment")
		}
		class := seg[0] >> 4
		id := seg[0] & 0x0F
		if class > 1 || id > 3 {
			return fmt.Errorf("mjpeg: bad DHT class/id %d/%d", class, id)
		}
		spec := &huffSpec{}
		total := 0
		for i := 0; i < 16; i++ {
			spec.counts[i] = seg[1+i]
			total += int(seg[1+i])
		}
		if len(seg) < 17+total {
			return errors.New("mjpeg: DHT values truncated")
		}
		spec.values = append([]byte(nil), seg[17:17+total]...)
		if class == 0 {
			dcSpec[id] = spec
		} else {
			acSpec[id] = spec
		}
		seg = seg[17+total:]
	}
	return nil
}

func (h *FrameHeader) parseSOS(seg []byte) error {
	if len(h.comps) == 0 {
		return errors.New("mjpeg: SOS before SOF0")
	}
	if len(seg) < 1 {
		return errors.New("mjpeg: truncated SOS")
	}
	n := int(seg[0])
	if n != len(h.comps) {
		return fmt.Errorf("mjpeg: scan has %d components, frame has %d (interleaved baseline only)",
			n, len(h.comps))
	}
	if len(seg) < 1+2*n+3 {
		return errors.New("mjpeg: truncated SOS parameters")
	}
	for i := 0; i < n; i++ {
		id := seg[1+2*i]
		sel := seg[2+2*i]
		found := false
		for j := range h.comps {
			if h.comps[j].ID == id {
				h.comps[j].DCSel = sel >> 4
				h.comps[j].ACSel = sel & 0x0F
				found = true
			}
		}
		if !found {
			return fmt.Errorf("mjpeg: SOS references unknown component %d", id)
		}
	}
	return nil
}

// CoeffBlock is one 8x8 block of quantized DCT coefficients in raster order
// (the zigzag reordering — part of the Fetch stage per §3.2 — has already
// been applied). Dequantization is deferred to the IDCT stage.
type CoeffBlock struct {
	Comp   int // component index within the frame
	BX, BY int // block coordinates in the component plane
	Coeff  [64]int32
}

// DecodeBlocks entropy-decodes the whole scan into coefficient blocks. It is
// the Huffman-decoding + pixel-reordering half of the Fetch component.
//
// Every block costs at least two bits of scan, a DC and an AC code of at
// least one bit each, so a scan of n bytes holds at most 4n blocks. A frame
// whose header declares more is rejected before anything is allocated for
// it: the header alone cannot size an allocation.
func (h *FrameHeader) DecodeBlocks() ([]CoeffBlock, error) {
	total := h.TotalBlocks()
	if most := 4 * len(h.scan); total > most {
		return nil, fmt.Errorf("mjpeg: %dx%d frame needs %d blocks, its %d-byte scan holds at most %d",
			h.Width, h.Height, total, len(h.scan), most)
	}
	r := newBitReader(h.scan)
	blocks := make([]CoeffBlock, total)
	var dcPred [3]int32
	k := 0
	mcu := 0
	nextRST := 0
	for my := 0; my < h.mcusY; my++ {
		for mx := 0; mx < h.mcusX; mx++ {
			if h.RestartInterval > 0 && mcu > 0 && mcu%h.RestartInterval == 0 {
				got, err := r.syncRestart()
				if err != nil {
					return nil, err
				}
				if got != nextRST {
					return nil, fmt.Errorf("mjpeg: restart marker %d, expected %d", got, nextRST)
				}
				nextRST = (nextRST + 1) & 7
				dcPred = [3]int32{}
			}
			for ci := range h.comps {
				c := &h.comps[ci]
				for v := 0; v < c.V; v++ {
					for hh := 0; hh < c.H; hh++ {
						b := &blocks[k]
						k++
						b.Comp, b.BX, b.BY = ci, mx*c.H+hh, my*c.V+v
						if err := h.decodeBlock(r, ci, &dcPred[ci], &b.Coeff); err != nil {
							return nil, fmt.Errorf("mjpeg: MCU (%d,%d) comp %d: %w", mx, my, ci, err)
						}
					}
				}
			}
			mcu++
		}
	}
	return blocks, nil
}

// decodeBlock reads one block's coefficients, applying DC prediction and the
// zigzag->raster reorder.
func (h *FrameHeader) decodeBlock(r *bitReader, comp int, dcPred *int32, out *[64]int32) error {
	c := &h.comps[comp]
	dcTab := h.dcDec[c.DCSel]
	acTab := h.acDec[c.ACSel]

	// DC coefficient.
	t, err := dcTab.decode(r)
	if err != nil {
		return err
	}
	if t > 11 {
		return fmt.Errorf("mjpeg: DC category %d out of range", t)
	}
	diff := 0
	if t > 0 {
		raw, err := r.readBits(int(t))
		if err != nil {
			return err
		}
		diff = extend(raw, int(t))
	}
	*dcPred += int32(diff)
	out[0] = *dcPred

	// AC coefficients.
	for zz := 1; zz < 64; {
		rs, err := acTab.decode(r)
		if err != nil {
			return err
		}
		run, size := int(rs>>4), int(rs&0x0F)
		if size == 0 {
			if run == 15 { // ZRL: 16 zeros
				zz += 16
				continue
			}
			break // EOB
		}
		zz += run
		if zz > 63 {
			return errors.New("mjpeg: AC run past end of block")
		}
		raw, err := r.readBits(size)
		if err != nil {
			return err
		}
		out[zigzag[zz]] = int32(extend(raw, size))
		zz++
	}
	return nil
}

// PixelBlock is one reconstructed 8x8 block of spatial samples: the output
// of the IDCT component, input to Reorder.
type PixelBlock struct {
	Comp   int
	BX, BY int
	Pix    [64]byte
}

// TransformBlock performs the IDCT component's work on one block:
// dequantization followed by the inverse DCT and level shift.
func (h *FrameHeader) TransformBlock(b *CoeffBlock) PixelBlock {
	q := &h.quant[h.comps[b.Comp].Quant]
	var tmp [64]int32
	for i := 0; i < 64; i++ {
		tmp[i] = b.Coeff[i] * int32(q[i])
	}
	idct(&tmp)
	out := PixelBlock{Comp: b.Comp, BX: b.BX, BY: b.BY}
	for i := 0; i < 64; i++ {
		out.Pix[i] = clamp8(tmp[i] + 128)
	}
	return out
}

// AssembleFrame performs the Reorder component's work: placing pixel blocks
// into component planes, upsampling and color-converting into the final
// image. Missing blocks are an error — the paper's Reorder waits for every
// IDCT result before emitting a frame.
func (h *FrameHeader) AssembleFrame(blocks []PixelBlock) (*Image, error) {
	if len(blocks) != h.TotalBlocks() {
		return nil, fmt.Errorf("mjpeg: assembling %d blocks, frame needs %d",
			len(blocks), h.TotalBlocks())
	}
	// Component planes at their native resolution.
	planes := make([][]byte, len(h.comps))
	seen := make([][]bool, len(h.comps))
	for ci := range h.comps {
		c := &h.comps[ci]
		planes[ci] = make([]byte, c.blocksX*8*c.blocksY*8)
		seen[ci] = make([]bool, c.blocksX*c.blocksY)
	}
	for i := range blocks {
		b := &blocks[i]
		if b.Comp < 0 || b.Comp >= len(h.comps) {
			return nil, fmt.Errorf("mjpeg: block for unknown component %d", b.Comp)
		}
		c := &h.comps[b.Comp]
		if b.BX < 0 || b.BX >= c.blocksX || b.BY < 0 || b.BY >= c.blocksY {
			return nil, fmt.Errorf("mjpeg: block (%d,%d) outside component %d plane", b.BX, b.BY, b.Comp)
		}
		idx := b.BY*c.blocksX + b.BX
		if seen[b.Comp][idx] {
			return nil, fmt.Errorf("mjpeg: duplicate block (%d,%d) for component %d", b.BX, b.BY, b.Comp)
		}
		seen[b.Comp][idx] = true
		stride := c.blocksX * 8
		plane := planes[b.Comp][b.BY*8*stride+b.BX*8:]
		for y := 0; y < 8; y++ {
			*(*[8]byte)(plane[y*stride:]) = *(*[8]byte)(b.Pix[y*8:])
		}
	}

	if len(h.comps) == 1 {
		im := NewGray(h.Width, h.Height)
		stride := h.comps[0].blocksX * 8
		for y := 0; y < h.Height; y++ {
			copy(im.Pix[y*im.W:(y+1)*im.W], planes[0][y*stride:y*stride+h.Width])
		}
		return im, nil
	}

	// Color-convert row by row. Sampling factors are 1 or 2 (check), so a
	// component sampled below the frame's maximum is read at x>>1 or y>>1
	// and one at the maximum at x or y: per-frame shifts instead of a
	// division per sample.
	var sx, sy [3]uint
	for ci := range h.comps {
		c := &h.comps[ci]
		if c.H < h.maxH {
			sx[ci] = 1
		}
		if c.V < h.maxV {
			sy[ci] = 1
		}
	}
	im := NewRGB(h.Width, h.Height)
	var rows [3][]byte
	for y := 0; y < h.Height; y++ {
		for ci := range rows {
			stride := h.comps[ci].blocksX * 8
			at := (y >> sy[ci]) * stride
			rows[ci] = planes[ci][at : at+stride]
		}
		ycbcrRowToRGB(im.Pix[3*y*im.W:3*(y+1)*im.W], rows, sx)
	}
	return im, nil
}

// Decode runs the complete pipeline — parse, entropy decode, IDCT,
// reassemble — on one JFIF image. It is the reference path the staged
// (component) pipeline is tested against.
func Decode(data []byte) (*Image, error) {
	h, err := ParseFrame(data)
	if err != nil {
		return nil, err
	}
	coeffs, err := h.DecodeBlocks()
	if err != nil {
		return nil, err
	}
	pix := make([]PixelBlock, len(coeffs))
	for i := range coeffs {
		pix[i] = h.TransformBlock(&coeffs[i])
	}
	return h.AssembleFrame(pix)
}
