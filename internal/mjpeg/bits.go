// Package mjpeg implements a from-scratch baseline JPEG codec and the
// Motion-JPEG stream format used by the paper's case-study application: "an
// existing application for decoding a stream of independent and individually
// encoded JPEG images".
//
// The decode pipeline is deliberately factored the way the paper partitions
// it across EMBera components (§3.2):
//
//   - Fetch: "file management, Huffman decoding and pixel reordering"
//     -> ParseFrame + entropy-decode + zigzag reorder into BlockGroups.
//   - IDCT: "computes IDCT"
//     -> dequantization + inverse DCT of each group.
//   - Reorder: "reassembles images"
//     -> AssembleFrame placing pixel blocks into the output image.
//
// The encoder exists to synthesize deterministic MJPEG input streams (the
// paper's proprietary 578- and 3000-image test videos are replaced by
// generated streams, see DESIGN.md §2).
package mjpeg

import (
	"errors"
	"fmt"
)

// Bit-level reader over entropy-coded JPEG data. JPEG byte-stuffs the scan:
// a 0xFF data byte is followed by 0x00, which the reader strips; 0xFF
// followed by anything else is a marker and terminates the scan.
type bitReader struct {
	data []byte
	pos  int    // next byte index
	acc  uint64 // bit accumulator, MSB-first: the low n bits are unread
	n    int    // valid bits in acc
}

// errScanTruncated reports entropy data running out mid-symbol.
var errScanTruncated = errors.New("mjpeg: truncated entropy-coded data")

func newBitReader(data []byte) *bitReader { return &bitReader{data: data} }

// fill loads one more byte into the accumulator, handling byte stuffing. It
// never consumes a marker: at a marker — a restart marker reached by
// over-read included, which the caller resynchronizes on via syncRestart —
// or at the end of the scan it leaves pos where it is and reports
// errScanTruncated.
func (r *bitReader) fill() error {
	if r.pos >= len(r.data) {
		return errScanTruncated
	}
	b := r.data[r.pos]
	if b == 0xFF {
		if r.pos+1 >= len(r.data) || r.data[r.pos+1] != 0x00 {
			return errScanTruncated
		}
		r.pos++ // stuffed byte: 0xFF00 decodes to a 0xFF data byte
	}
	r.pos++
	r.acc = r.acc<<8 | uint64(b)
	r.n += 8
	return nil
}

// ensure fills ahead until at least k bits (k <= 57) are buffered. It stops
// short without error at a marker or the end of the scan: only a read that
// needs the missing bits fails, and it fails exactly where a bit-at-a-time
// reader would.
func (r *bitReader) ensure(k int) {
	for r.n < k {
		if r.fill() != nil {
			return
		}
	}
}

// readBit returns the next bit of the scan.
func (r *bitReader) readBit() (int, error) {
	if r.n == 0 {
		if err := r.fill(); err != nil {
			return 0, err
		}
	}
	r.n--
	return int(r.acc>>uint(r.n)) & 1, nil
}

// readBits returns the next n bits MSB-first (n <= 16).
func (r *bitReader) readBits(n int) (int, error) {
	if r.n < n {
		r.ensure(n)
		if r.n < n {
			return 0, errScanTruncated
		}
	}
	r.n -= n
	return int(r.acc>>uint(r.n)) & (1<<uint(n) - 1), nil
}

// syncRestart aligns to the next restart marker RSTn and consumes it,
// returning its index (0..7). It is called between restart intervals.
func (r *bitReader) syncRestart() (int, error) {
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

// bitWriter emits an entropy-coded JPEG scan with byte stuffing.
type bitWriter struct {
	out []byte
	acc uint32
	n   int
}

// writeBits appends the low `n` bits of v, MSB-first.
func (w *bitWriter) writeBits(v, n int) {
	w.acc = w.acc<<uint(n) | uint32(v)&((1<<uint(n))-1)
	w.n += n
	for w.n >= 8 {
		b := byte(w.acc >> uint(w.n-8))
		w.out = append(w.out, b)
		if b == 0xFF {
			w.out = append(w.out, 0x00) // byte stuffing
		}
		w.n -= 8
	}
}

// flush pads the final partial byte with 1-bits, as the standard requires.
func (w *bitWriter) flush() {
	if w.n > 0 {
		pad := 8 - w.n
		w.writeBits((1<<uint(pad))-1, pad)
	}
}
