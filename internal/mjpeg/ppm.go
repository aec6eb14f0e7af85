package mjpeg

import (
	"bufio"
	"errors"
	"fmt"
	"io"
)

// WritePPM serializes the image as a binary PPM (P6) / PGM (P5) file — the
// simplest portable way to eyeball decoder output.
func WritePPM(w io.Writer, img *Image) error {
	if img == nil || img.W <= 0 || img.H <= 0 {
		return errors.New("mjpeg: nil or empty image")
	}
	bw := bufio.NewWriter(w)
	magic := "P6"
	if img.Gray {
		magic = "P5"
	}
	if _, err := fmt.Fprintf(bw, "%s\n%d %d\n255\n", magic, img.W, img.H); err != nil {
		return err
	}
	if _, err := bw.Write(img.Pix); err != nil {
		return err
	}
	return bw.Flush()
}

// StreamInfo summarizes one MJPEG stream: frame count, geometry of the
// first frame and per-frame compressed sizes.
type StreamInfo struct {
	Frames     int
	Width      int
	Height     int
	Components int
	TotalBytes int
	MinFrame   int
	MaxFrame   int
}

// Inspect parses a stream's structure without decoding pixel data.
func Inspect(stream []byte) (*StreamInfo, error) {
	frames, err := SplitStream(stream)
	if err != nil {
		return nil, err
	}
	h, err := ParseFrame(frames[0])
	if err != nil {
		return nil, err
	}
	info := &StreamInfo{
		Frames:     len(frames),
		Width:      h.Width,
		Height:     h.Height,
		Components: h.NumComponents(),
		TotalBytes: len(stream),
		MinFrame:   len(frames[0]),
		MaxFrame:   len(frames[0]),
	}
	for _, f := range frames[1:] {
		if len(f) < info.MinFrame {
			info.MinFrame = len(f)
		}
		if len(f) > info.MaxFrame {
			info.MaxFrame = len(f)
		}
	}
	return info, nil
}
