package mjpeg

import "math"

// 8x8 forward and inverse discrete cosine transforms, separable and in
// float64, driven by a precomputed basis matrix. The forward transform runs
// only when a stream is encoded and stays dense. The inverse transform runs
// on every decoded block, so it skips the work the zero coefficients of a
// quantized block would contribute, without changing one bit of its output
// (see idct). Virtual-time compute cost is charged by the platform models,
// not measured from host CPU time, so neither form moves a simulated
// schedule.

// dctBasis[u][x] = C(u)/2 * cos((2x+1)uπ/16)
var dctBasis [8][8]float64

func init() {
	for u := 0; u < 8; u++ {
		cu := 1.0
		if u == 0 {
			cu = 1 / math.Sqrt2
		}
		for x := 0; x < 8; x++ {
			dctBasis[u][x] = cu / 2 * math.Cos(float64(2*x+1)*float64(u)*math.Pi/16)
		}
	}
}

// fdct transforms an 8x8 spatial block (level-shifted samples, raster order)
// into DCT coefficients, in place.
func fdct(block *[64]int32) {
	var tmp [64]float64
	// Rows.
	for y := 0; y < 8; y++ {
		for u := 0; u < 8; u++ {
			var s float64
			for x := 0; x < 8; x++ {
				s += float64(block[y*8+x]) * dctBasis[u][x]
			}
			tmp[y*8+u] = s
		}
	}
	// Columns.
	for u := 0; u < 8; u++ {
		for v := 0; v < 8; v++ {
			var s float64
			for y := 0; y < 8; y++ {
				s += tmp[y*8+u] * dctBasis[v][y]
			}
			block[v*8+u] = int32(math.RoundToEven(s))
		}
	}
}

// idct transforms an 8x8 coefficient block back to spatial samples, in
// place.
//
// It is the dense separable transform — a column pass, then a row pass,
// each output a float64 sum of eight products in ascending index order,
// rounded half to even — with the zero terms left out. Leaving them out is
// exact: every sum starts at +0, adding a ±0 product never changes a
// nonzero sum and never turns +0 into -0, so dropping the zero products
// while adding the others in the same order yields the same bits. The
// column pass skips zero coefficients; the row pass skips the columns
// whose coefficients were all zero, since their intermediate values are
// all +0. A quantized block averages about nine nonzero coefficients of 64
// in three or four columns, so most of the 1,024 multiplies go.
//
// Each term stays a separate s += c*b, so both forms round alike, or fuse
// alike where the compiler fuses multiply-adds. Regrouping the sums
// (butterflies, cosine symmetries, integer approximations) would move
// pixels and is ruled out; the dense form is kept as the test oracle.
func idct(block *[64]int32) {
	var tmp [64]float64
	var cols [8]int // the columns holding a nonzero coefficient, ascending
	nc := 0
	// Columns (inverse): one accumulator per output row.
	for u := 0; u < 8; u++ {
		var s0, s1, s2, s3, s4, s5, s6, s7 float64
		nonzero := false
		for v := 0; v < 8; v++ {
			c := block[v*8+u]
			if c == 0 {
				continue
			}
			nonzero = true
			f, b := float64(c), &dctBasis[v]
			s0 += f * b[0]
			s1 += f * b[1]
			s2 += f * b[2]
			s3 += f * b[3]
			s4 += f * b[4]
			s5 += f * b[5]
			s6 += f * b[6]
			s7 += f * b[7]
		}
		if !nonzero {
			continue
		}
		tmp[0*8+u], tmp[1*8+u], tmp[2*8+u], tmp[3*8+u] = s0, s1, s2, s3
		tmp[4*8+u], tmp[5*8+u], tmp[6*8+u], tmp[7*8+u] = s4, s5, s6, s7
		cols[nc] = u
		nc++
	}
	// Rows (inverse): one accumulator per output column.
	for y := 0; y < 8; y++ {
		var s0, s1, s2, s3, s4, s5, s6, s7 float64
		row := tmp[y*8 : y*8+8 : y*8+8]
		for _, u := range cols[:nc] {
			t, b := row[u], &dctBasis[u]
			s0 += t * b[0]
			s1 += t * b[1]
			s2 += t * b[2]
			s3 += t * b[3]
			s4 += t * b[4]
			s5 += t * b[5]
			s6 += t * b[6]
			s7 += t * b[7]
		}
		out := block[y*8 : y*8+8 : y*8+8]
		out[0] = int32(math.RoundToEven(s0))
		out[1] = int32(math.RoundToEven(s1))
		out[2] = int32(math.RoundToEven(s2))
		out[3] = int32(math.RoundToEven(s3))
		out[4] = int32(math.RoundToEven(s4))
		out[5] = int32(math.RoundToEven(s5))
		out[6] = int32(math.RoundToEven(s6))
		out[7] = int32(math.RoundToEven(s7))
	}
}

// clamp8 clips v to the unsigned 8-bit sample range.
func clamp8(v int32) byte {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return byte(v)
}
