package mjpeg

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"
)

func TestPPMRoundTripRGB(t *testing.T) {
	img := SynthFrame(32, 24, 2)
	var buf bytes.Buffer
	if err := WritePPM(&buf, img); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf.Bytes(), []byte("P6\n32 24\n255\n")) {
		t.Errorf("header = %q", buf.Bytes()[:16])
	}
	got, err := ReadPPM(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if MaxAbsDiff(img, got) != 0 {
		t.Error("PPM round trip lossy")
	}
}

func TestPPMRoundTripGray(t *testing.T) {
	img := NewGray(16, 8)
	for i := range img.Pix {
		img.Pix[i] = byte(i * 3)
	}
	var buf bytes.Buffer
	if err := WritePPM(&buf, img); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPPM(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Gray || MaxAbsDiff(img, got) != 0 {
		t.Error("PGM round trip lossy")
	}
}

func TestPPMRejectsGarbage(t *testing.T) {
	if err := WritePPM(&bytes.Buffer{}, nil); err == nil {
		t.Error("nil image accepted")
	}
	bad := []string{
		"",
		"P3\n2 2\n255\nxxxx",
		"P6\n0 2\n255\n",
		"P6\n2 2\n65535\n",
		"P6\n2 2\n255\nxx", // truncated pixels
	}
	for i, doc := range bad {
		if _, err := ReadPPM(strings.NewReader(doc)); err == nil {
			t.Errorf("garbage ppm %d accepted", i)
		}
	}
}

func TestInspect(t *testing.T) {
	stream, err := SynthStream(48, 32, 5, EncodeOptions{Quality: 80})
	if err != nil {
		t.Fatal(err)
	}
	info, err := Inspect(stream)
	if err != nil {
		t.Fatal(err)
	}
	if info.Frames != 5 || info.Width != 48 || info.Height != 32 || info.Components != 3 {
		t.Errorf("info = %+v", info)
	}
	if info.TotalBytes != len(stream) {
		t.Errorf("total = %d", info.TotalBytes)
	}
	if info.MinFrame <= 0 || info.MaxFrame < info.MinFrame {
		t.Errorf("frame sizes = [%d, %d]", info.MinFrame, info.MaxFrame)
	}
	if _, err := Inspect([]byte{1, 2, 3}); err == nil {
		t.Error("garbage stream inspected")
	}
}

// ReadPPM parses a binary PPM (P6) or PGM (P5) file written by WritePPM.
func ReadPPM(r io.Reader) (*Image, error) {
	br := bufio.NewReader(r)
	var magic string
	var w, h, maxval int
	if _, err := fmt.Fscan(br, &magic, &w, &h, &maxval); err != nil {
		return nil, fmt.Errorf("mjpeg: ppm header: %w", err)
	}
	if magic != "P6" && magic != "P5" {
		return nil, fmt.Errorf("mjpeg: unsupported ppm magic %q", magic)
	}
	if maxval != 255 || w <= 0 || h <= 0 {
		return nil, fmt.Errorf("mjpeg: unsupported ppm geometry %dx%d max %d", w, h, maxval)
	}
	if _, err := br.ReadByte(); err != nil { // single whitespace after maxval
		return nil, err
	}
	var img *Image
	if magic == "P5" {
		img = NewGray(w, h)
	} else {
		img = NewRGB(w, h)
	}
	if _, err := io.ReadFull(br, img.Pix); err != nil {
		return nil, fmt.Errorf("mjpeg: ppm pixels: %w", err)
	}
	return img, nil
}
