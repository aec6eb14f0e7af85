package mjpeg

import (
	"errors"
	"fmt"
	"math"
)

// Reference kernels: the decoder's dense inverse DCT, its bit-at-a-time
// entropy decoder and its per-pixel frame assembly, kept as test oracles.
// The production kernels skip zero work and read several bits at a time;
// they must produce byte-identical pixels on every input, and fail on
// exactly the inputs these fail on. decodeReference chains the oracles.
//
// The one deliberate departure from the original code is in
// refDecodeBlocks, which grows its block slice instead of sizing it from
// the frame header, so that a forged header cannot exhaust memory in the
// oracle while it is compared against the production decoder.

// idctDense is the dense separable inverse DCT: every output sums all eight
// products, zero or not, in ascending index order.
func idctDense(block *[64]int32) {
	var tmp [64]float64
	// Columns (inverse).
	for u := 0; u < 8; u++ {
		for y := 0; y < 8; y++ {
			var s float64
			for v := 0; v < 8; v++ {
				s += float64(block[v*8+u]) * dctBasis[v][y]
			}
			tmp[y*8+u] = s
		}
	}
	// Rows (inverse).
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			var s float64
			for u := 0; u < 8; u++ {
				s += tmp[y*8+u] * dctBasis[u][x]
			}
			block[y*8+x] = int32(math.RoundToEven(s))
		}
	}
}

// refBitReader is the bit-at-a-time scan reader: one byte loaded per eight
// bits, one call per bit.
type refBitReader struct {
	data []byte
	pos  int    // next byte index
	acc  uint32 // bit accumulator, MSB-first
	n    int    // valid bits in acc
}

// fill loads one more byte into the accumulator, handling byte stuffing.
func (r *refBitReader) fill() error {
	if r.pos >= len(r.data) {
		return errScanTruncated
	}
	b := r.data[r.pos]
	r.pos++
	if b == 0xFF {
		if r.pos >= len(r.data) {
			return errScanTruncated
		}
		next := r.data[r.pos]
		switch {
		case next == 0x00:
			r.pos++ // stuffed byte: 0xFF00 decodes to a 0xFF data byte
		case next >= 0xD0 && next <= 0xD7:
			// Restart marker reached by over-read; report truncation so the
			// caller resynchronizes via syncRestart instead.
			r.pos--
			return errScanTruncated
		default:
			r.pos-- // genuine marker: scan is over
			return errScanTruncated
		}
	}
	r.acc = r.acc<<8 | uint32(b)
	r.n += 8
	return nil
}

// readBit returns the next bit of the scan.
func (r *refBitReader) readBit() (int, error) {
	if r.n == 0 {
		if err := r.fill(); err != nil {
			return 0, err
		}
	}
	r.n--
	return int(r.acc>>uint(r.n)) & 1, nil
}

// readBits returns the next n bits MSB-first (n <= 16).
func (r *refBitReader) readBits(n int) (int, error) {
	v := 0
	for i := 0; i < n; i++ {
		bit, err := r.readBit()
		if err != nil {
			return 0, err
		}
		v = v<<1 | bit
	}
	return v, nil
}

// syncRestart aligns to the next restart marker RSTn and consumes it,
// returning its index (0..7). It is called between restart intervals.
func (r *refBitReader) syncRestart() (int, error) {
	r.acc, r.n = 0, 0 // discard padding bits
	for r.pos+1 < len(r.data) {
		if r.data[r.pos] == 0xFF {
			m := r.data[r.pos+1]
			if m >= 0xD0 && m <= 0xD7 {
				r.pos += 2
				return int(m - 0xD0), nil
			}
			if m == 0x00 {
				r.pos += 2
				continue
			}
			return 0, fmt.Errorf("mjpeg: expected restart marker, found 0xFF%02X", m)
		}
		r.pos++
	}
	return 0, errScanTruncated
}

// refHuffDecode reads one Huffman symbol bit by bit with the canonical
// first-code walk of T.81 Annex F.2.2.3.
func refHuffDecode(d *huffDecoder, r *refBitReader) (byte, error) {
	code := 0
	for l := 1; l <= 16; l++ {
		bit, err := r.readBit()
		if err != nil {
			return 0, err
		}
		code = code<<1 | bit
		if d.count[l] > 0 && code < d.firstCode[l]+d.count[l] {
			if code < d.firstCode[l] {
				return 0, errBadHuffCode
			}
			return d.values[d.firstIndex[l]+code-d.firstCode[l]], nil
		}
	}
	return 0, errBadHuffCode
}

// refDecodeBlocks entropy-decodes the whole scan with the reference reader.
func refDecodeBlocks(h *FrameHeader) ([]CoeffBlock, error) {
	r := &refBitReader{data: h.scan}
	var blocks []CoeffBlock
	dcPred := make([]int32, len(h.comps))
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
				for i := range dcPred {
					dcPred[i] = 0
				}
			}
			for ci := range h.comps {
				c := &h.comps[ci]
				for v := 0; v < c.V; v++ {
					for hh := 0; hh < c.H; hh++ {
						b := CoeffBlock{
							Comp: ci,
							BX:   mx*c.H + hh,
							BY:   my*c.V + v,
						}
						if err := refDecodeBlock(h, r, ci, &dcPred[ci], &b.Coeff); err != nil {
							return nil, fmt.Errorf("mjpeg: MCU (%d,%d) comp %d: %w", mx, my, ci, err)
						}
						blocks = append(blocks, b)
					}
				}
			}
			mcu++
		}
	}
	return blocks, nil
}

// refDecodeBlock reads one block's coefficients, applying DC prediction and
// the zigzag->raster reorder.
func refDecodeBlock(h *FrameHeader, r *refBitReader, comp int, dcPred *int32, out *[64]int32) error {
	c := &h.comps[comp]
	dcTab := h.dcDec[c.DCSel]
	acTab := h.acDec[c.ACSel]

	// DC coefficient.
	t, err := refHuffDecode(dcTab, r)
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
		rs, err := refHuffDecode(acTab, r)
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

// refTransformBlock dequantizes one block and runs the dense inverse DCT.
func refTransformBlock(h *FrameHeader, b *CoeffBlock) PixelBlock {
	q := &h.quant[h.comps[b.Comp].Quant]
	var tmp [64]int32
	for i := 0; i < 64; i++ {
		tmp[i] = b.Coeff[i] * int32(q[i])
	}
	idctDense(&tmp)
	out := PixelBlock{Comp: b.Comp, BX: b.BX, BY: b.BY}
	for i := 0; i < 64; i++ {
		out.Pix[i] = clamp8(tmp[i] + 128)
	}
	return out
}

// refAssembleFrame places the pixel blocks into component planes and
// converts pixel by pixel, dividing out the sampling factors per sample.
func refAssembleFrame(h *FrameHeader, blocks []PixelBlock) (*Image, error) {
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
		for y := 0; y < 8; y++ {
			copy(planes[b.Comp][(b.BY*8+y)*stride+b.BX*8:], b.Pix[y*8:y*8+8])
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

	im := NewRGB(h.Width, h.Height)
	for y := 0; y < h.Height; y++ {
		for x := 0; x < h.Width; x++ {
			var s [3]byte
			for ci := range h.comps {
				c := &h.comps[ci]
				sx := x * c.H / h.maxH
				sy := y * c.V / h.maxV
				s[ci] = planes[ci][sy*c.blocksX*8+sx]
			}
			r, g, b := ycbcrToRGB(s[0], s[1], s[2])
			i := 3 * (y*im.W + x)
			im.Pix[i], im.Pix[i+1], im.Pix[i+2] = r, g, b
		}
	}
	return im, nil
}

// ycbcrToRGB converts one pixel, the per-sample form of ycbcrRowToRGB.
func ycbcrToRGB(y, cb, cr byte) (r, g, b byte) {
	yv := int32(y)
	cbv := int32(cb) - 128
	crv := int32(cr) - 128
	rr := yv + (91881*crv+32768)>>16
	gg := yv - (22554*cbv+46802*crv+32768)>>16
	bb := yv + (116130*cbv+32768)>>16
	return clamp8(rr), clamp8(gg), clamp8(bb)
}

// decodeReference decodes one JFIF image with the reference kernels:
// ParseFrame, the bit-serial entropy decode, the dense inverse DCT and the
// per-pixel assembly.
func decodeReference(data []byte) (*Image, error) {
	h, err := ParseFrame(data)
	if err != nil {
		return nil, err
	}
	coeffs, err := refDecodeBlocks(h)
	if err != nil {
		return nil, err
	}
	pix := make([]PixelBlock, len(coeffs))
	for i := range coeffs {
		pix[i] = refTransformBlock(h, &coeffs[i])
	}
	return refAssembleFrame(h, pix)
}
