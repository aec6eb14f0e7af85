package mjpeg

import (
	"fmt"
	"math"
)

// Image is a simple decoded picture: either grayscale (1 byte per pixel) or
// RGB (3 bytes per pixel, interleaved).
type Image struct {
	W, H int
	Gray bool
	Pix  []byte
}

// NewGray allocates a grayscale image.
func NewGray(w, h int) *Image {
	return &Image{W: w, H: h, Gray: true, Pix: make([]byte, w*h)}
}

// NewRGB allocates an RGB image.
func NewRGB(w, h int) *Image {
	return &Image{W: w, H: h, Pix: make([]byte, 3*w*h)}
}

// At returns the pixel at (x, y) as r, g, b (equal channels for grayscale).
func (im *Image) At(x, y int) (r, g, b byte) {
	if x < 0 || y < 0 || x >= im.W || y >= im.H {
		panic(fmt.Sprintf("mjpeg: pixel (%d,%d) outside %dx%d", x, y, im.W, im.H))
	}
	if im.Gray {
		v := im.Pix[y*im.W+x]
		return v, v, v
	}
	i := 3 * (y*im.W + x)
	return im.Pix[i], im.Pix[i+1], im.Pix[i+2]
}

// SetRGB stores a pixel (for grayscale images the BT.601 luma is stored).
func (im *Image) SetRGB(x, y int, r, g, b byte) {
	if x < 0 || y < 0 || x >= im.W || y >= im.H {
		panic(fmt.Sprintf("mjpeg: pixel (%d,%d) outside %dx%d", x, y, im.W, im.H))
	}
	if im.Gray {
		im.Pix[y*im.W+x] = rgbToY(r, g, b)
		return
	}
	i := 3 * (y*im.W + x)
	im.Pix[i], im.Pix[i+1], im.Pix[i+2] = r, g, b
}

// BT.601 full-range color conversions used by JFIF.

func rgbToY(r, g, b byte) byte {
	y := (19595*int32(r) + 38470*int32(g) + 7471*int32(b) + 32768) >> 16
	return clamp8(y)
}

func rgbToYCbCr(r, g, b byte) (y, cb, cr byte) {
	rr, gg, bb := int32(r), int32(g), int32(b)
	yv := (19595*rr + 38470*gg + 7471*bb + 32768) >> 16
	cbv := ((-11056*rr - 21712*gg + 32768*bb + 32768) >> 16) + 128
	crv := ((32768*rr - 27440*gg - 5328*bb + 32768) >> 16) + 128
	return clamp8(yv), clamp8(cbv), clamp8(crv)
}

// ycbcrRowToRGB color-converts one row into dst, three bytes a pixel. The
// Y, Cb and Cr samples of pixel x are src[k][x>>sx[k]]: a shift of 1 reads a
// horizontally subsampled component.
func ycbcrRowToRGB(dst []byte, src [3][]byte, sx [3]uint) {
	yRow, cbRow, crRow := src[0], src[1], src[2]
	for x := 0; x < len(dst)/3; x++ {
		yv := int32(yRow[x>>sx[0]])
		cbv := int32(cbRow[x>>sx[1]]) - 128
		crv := int32(crRow[x>>sx[2]]) - 128
		rr := yv + (91881*crv+32768)>>16
		gg := yv - (22554*cbv+46802*crv+32768)>>16
		bb := yv + (116130*cbv+32768)>>16
		px := dst[3*x : 3*x+3 : 3*x+3]
		px[0], px[1], px[2] = clamp8(rr), clamp8(gg), clamp8(bb)
	}
}

// maxAbsDiff returns the largest per-channel absolute difference between two
// images of identical geometry; a convenient test metric for lossy codecs.
func MaxAbsDiff(a, b *Image) int {
	if a.W != b.W || a.H != b.H {
		return 255
	}
	worst := 0
	for y := 0; y < a.H; y++ {
		for x := 0; x < a.W; x++ {
			ar, ag, ab := a.At(x, y)
			br, bg, bb := b.At(x, y)
			for _, d := range []int{int(ar) - int(br), int(ag) - int(bg), int(ab) - int(bb)} {
				if d < 0 {
					d = -d
				}
				if d > worst {
					worst = d
				}
			}
		}
	}
	return worst
}

// PSNR returns the peak signal-to-noise ratio between two images of
// identical geometry, in dB (higher = closer; +Inf for identical images).
// It is the standard objective-quality metric for lossy codecs and is used
// to validate the staged pipeline against the reference decoder.
func PSNR(a, b *Image) float64 {
	if a.W != b.W || a.H != b.H {
		return 0
	}
	var sse float64
	n := 0
	for y := 0; y < a.H; y++ {
		for x := 0; x < a.W; x++ {
			ar, ag, ab := a.At(x, y)
			br, bg, bb := b.At(x, y)
			for _, d := range [3]int{int(ar) - int(br), int(ag) - int(bg), int(ab) - int(bb)} {
				sse += float64(d) * float64(d)
				n++
			}
		}
	}
	if sse == 0 {
		return math.Inf(1)
	}
	mse := sse / float64(n)
	return 10 * math.Log10(255*255/mse)
}
