package mjpeg

import (
	"fmt"
	"math"
)

// Image comparison and construction helpers for the codec tests.

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

// MaxAbsDiff returns the largest per-channel absolute difference between two
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
