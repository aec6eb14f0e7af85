package mjpeg

import (
	"errors"
	"fmt"
)

// lookupBits is the width of a huffDecoder's lookup table index. The
// standard tables give the common symbols — EOB, short runs, small
// magnitudes — codes of at most 9 bits.
const lookupBits = 9

// huffDecoder decodes Huffman symbols from a bitReader. It is built from a
// DHT specification using the canonical-code construction of T.81 Annex C:
// codes of each length are consecutive, starting from (previous first code +
// previous count) << 1.
//
// Decoding peeks lookupBits bits and indexes lookup with them: every prefix
// that begins with a code of at most lookupBits bits holds that code's
// length<<8 | symbol, so a hit consumes the code's bits and is done. A zero
// entry — a longer code, or no code at all — and a peek the scan cannot
// fill, at its end or at a marker, fall back to the canonical walk of
// T.81 Annex F.2.2.3, one bit at a time. The fallback is the only place a
// symbol can fail to decode, so every error comes from the same code
// whichever path the input takes.
type huffDecoder struct {
	lookup [1 << lookupBits]uint16
	// For each code length l (1..16): firstCode[l] is the smallest code of
	// that length, firstIndex[l] the index of its symbol in values, and
	// count[l] the number of codes of that length.
	firstCode  [17]int
	firstIndex [17]int
	count      [17]int
	values     []byte
}

// errBadHuffCode reports a bit pattern not present in the table.
var errBadHuffCode = errors.New("mjpeg: invalid Huffman code in scan")

func newHuffDecoder(spec huffSpec) (*huffDecoder, error) {
	d := &huffDecoder{values: spec.values}
	total := 0
	code := 0
	for l := 1; l <= 16; l++ {
		d.firstCode[l] = code
		d.firstIndex[l] = total
		d.count[l] = int(spec.counts[l-1])
		total += d.count[l]
		code = (code + d.count[l]) << 1
		if code > 1<<uint(l+1) {
			return nil, fmt.Errorf("mjpeg: over-subscribed Huffman table at length %d", l)
		}
	}
	if total != len(spec.values) {
		return nil, fmt.Errorf("mjpeg: Huffman table declares %d symbols but carries %d",
			total, len(spec.values))
	}
	for l := 1; l <= lookupBits; l++ {
		shift := uint(lookupBits - l)
		for i := 0; i < d.count[l]; i++ {
			e := uint16(l<<8) | uint16(d.values[d.firstIndex[l]+i])
			code := d.firstCode[l] + i
			for p := code << shift; p < (code+1)<<shift; p++ {
				d.lookup[p] = e
			}
		}
	}
	return d, nil
}

// decode reads one Huffman symbol.
func (d *huffDecoder) decode(r *bitReader) (byte, error) {
	r.ensure(lookupBits)
	if r.n >= lookupBits {
		if e := d.lookup[r.acc>>uint(r.n-lookupBits)&(1<<lookupBits-1)]; e != 0 {
			r.n -= int(e >> 8)
			return byte(e), nil
		}
	}
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

// huffEncoder maps symbols to (code, length) pairs derived from the same
// canonical construction.
type huffEncoder struct {
	code [256]uint16
	size [256]byte
}

func newHuffEncoder(spec huffSpec) (*huffEncoder, error) {
	e := &huffEncoder{}
	codeVal := 0
	idx := 0
	for l := 1; l <= 16; l++ {
		for i := 0; i < int(spec.counts[l-1]); i++ {
			if idx >= len(spec.values) {
				return nil, fmt.Errorf("mjpeg: Huffman spec short of values")
			}
			sym := spec.values[idx]
			if e.size[sym] != 0 {
				return nil, fmt.Errorf("mjpeg: duplicate Huffman symbol 0x%02X", sym)
			}
			e.code[sym] = uint16(codeVal)
			e.size[sym] = byte(l)
			codeVal++
			idx++
		}
		codeVal <<= 1
	}
	if idx != len(spec.values) {
		return nil, fmt.Errorf("mjpeg: Huffman spec has %d extra values", len(spec.values)-idx)
	}
	return e, nil
}

// emit writes the code for sym.
func (e *huffEncoder) emit(w *bitWriter, sym byte) error {
	if e.size[sym] == 0 {
		return fmt.Errorf("mjpeg: symbol 0x%02X not in Huffman table", sym)
	}
	w.writeBits(int(e.code[sym]), int(e.size[sym]))
	return nil
}

// bitLength returns the magnitude category of v: the number of bits needed
// to represent |v| (T.81 F.1.2.1.1).
func bitLength(v int) int {
	if v < 0 {
		v = -v
	}
	n := 0
	for v > 0 {
		n++
		v >>= 1
	}
	return n
}

// encodeMagnitude returns the extra bits that encode v within its category
// (one's-complement form for negatives).
func encodeMagnitude(v, n int) int {
	if v >= 0 {
		return v
	}
	return v + (1 << uint(n)) - 1
}

// extend recovers a signed value from its category and extra bits
// (T.81 F.2.2.1 EXTEND).
func extend(v, n int) int {
	if n == 0 {
		return 0
	}
	if v < 1<<uint(n-1) {
		return v - (1 << uint(n)) + 1
	}
	return v
}
