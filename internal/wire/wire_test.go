package wire_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"embera/internal/core"
	"embera/internal/mjpeg"
	"embera/internal/mjpegapp" // also registers the group codecs
	"embera/internal/monitor"
	"embera/internal/wire"
)

// unit stands in for any struct payload a workload sends through a
// registered codec; the MJPEG groups are the real ones.
type unit struct {
	ID   int64
	Tag  string
	Vals []int64
}

func init() { wire.Register("wire_test.unit", appendUnit, decodeUnit) }

func appendUnit(buf []byte, u unit) ([]byte, error) {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(u.ID))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(u.Tag)))
	buf = append(buf, u.Tag...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(u.Vals)))
	for _, v := range u.Vals {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
	}
	return buf, nil
}

func decodeUnit(b []byte) (unit, error) {
	var u unit
	if len(b) < 12 {
		return u, errors.New("short unit")
	}
	u.ID = int64(binary.LittleEndian.Uint64(b))
	n := binary.LittleEndian.Uint32(b[8:])
	b = b[12:]
	if uint64(n)+4 > uint64(len(b)) {
		return u, errors.New("short unit tag")
	}
	u.Tag, b = string(b[:n]), b[n:]
	n = binary.LittleEndian.Uint32(b)
	b = b[4:]
	if uint64(n)*8 != uint64(len(b)) {
		return u, errors.New("unit values do not fill the payload")
	}
	u.Vals = make([]int64, n)
	for i := range u.Vals {
		u.Vals[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return u, nil
}

// randFrame builds a random frame of a random type, populating exactly the
// fields DecodeFrame would, so a round-tripped frame must be DeepEqual.
func randFrame(rng *rand.Rand) wire.Frame {
	types := []byte{
		wire.TypeHello, wire.TypeData, wire.TypeEdgeClose, wire.TypeWindows, wire.TypeReports,
		wire.TypeShardDone, wire.TypeTerminate, wire.TypeCompKill, wire.TypeBye, wire.TypeError,
	}
	f := wire.Frame{Type: types[rng.Intn(len(types))]}
	switch f.Type {
	case wire.TypeHello, wire.TypeShardDone:
		f.Shard = rng.Uint32()
	case wire.TypeData:
		f.Edge = rng.Uint32()
		f.Bytes = rng.Int63()
		f.From = randString(rng, rng.Intn(24))
		f.Payload = randPayload(rng)
	case wire.TypeEdgeClose:
		f.Edge = rng.Uint32()
	case wire.TypeWindows:
		n := 1 + rng.Intn(3)
		for i := 0; i < n; i++ {
			f.Windows = append(f.Windows, randWindow(rng))
		}
		f.Shard = rng.Uint32()
	case wire.TypeReports:
		f.Shard = rng.Uint32()
		f.Units = rng.Int63()
		f.Checksum = rng.Uint64()
		for i := rng.Intn(4); i > 0; i-- {
			f.Ledger = append(f.Ledger, wire.EdgeCount{
				Edge: rng.Uint32(), Sent: rng.Uint64(), Lost: rng.Uint64(), Received: rng.Uint64(),
			})
		}
		f.Inbound = wire.QueueDepth{Frames: rng.Intn(1 << 20), Bytes: rng.Int()}
		f.InboundPeak = wire.QueueDepth{Frames: rng.Intn(1 << 20), Bytes: rng.Int()}
		f.Reports = randReports(rng)
	case wire.TypeCompKill, wire.TypeError:
		f.Name = randString(rng, 1+rng.Intn(32))
	}
	return f
}

func randString(rng *rand.Rand, n int) string {
	b := make([]byte, n)
	rng.Read(b)
	return string(b)
}

// randName is ASCII-only: report maps cross the wire as JSON, which replaces
// invalid UTF-8, so names there must stay in the printable range.
func randName(rng *rand.Rand, n int) string {
	const alpha = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._"
	b := make([]byte, n)
	for i := range b {
		b[i] = alpha[rng.Intn(len(alpha))]
	}
	return string(b)
}

func randPayload(rng *rand.Rand) any {
	switch rng.Intn(9) {
	case 0:
		return nil
	case 1:
		return rng.Intn(2) == 0
	case 2:
		return int(rng.Int63()) - rng.Intn(2)*int(rng.Int63())
	case 3:
		return rng.Int63() - 1<<62
	case 4:
		return rng.Uint64()
	case 5:
		return (rng.Float64() - 0.5) * 1e12
	case 6:
		return randString(rng, rng.Intn(64))
	case 7:
		b := make([]byte, 1+rng.Intn(64)) // empty slices round-trip as nil
		rng.Read(b)
		return b
	default:
		return unit{
			ID:   rng.Int63(),
			Tag:  randString(rng, 1+rng.Intn(8)),
			Vals: []int64{rng.Int63(), rng.Int63()},
		}
	}
}

func randWindow(rng *rand.Rand) monitor.WindowStats {
	w := monitor.WindowStats{
		Component:    randString(rng, rng.Intn(16)),
		StartUS:      rng.Int63(),
		EndUS:        rng.Int63(),
		CoveredUS:    rng.Int63(),
		Samples:      rng.Intn(1 << 20),
		SendOps:      rng.Uint64(),
		RecvOps:      rng.Uint64(),
		DeltaSendOps: rng.Uint64(),
		DeltaRecvOps: rng.Uint64(),
		SendRate:     rng.Float64() * 1e9,
		RecvRate:     rng.Float64() * 1e9,
		DepthHigh:    rng.Intn(1 << 16),
		MemHigh:      rng.Int63(),
	}
	for i := range w.DepthHist.Counts {
		w.DepthHist.Counts[i] = rng.Uint64() % 1e6
		w.LatencyHist.Counts[i] = rng.Uint64() % 1e6
	}
	w.DepthHist.Total = rng.Uint64()
	w.DepthHist.Max = rng.Int63()
	w.LatencyHist.Total = rng.Uint64()
	w.LatencyHist.Max = rng.Int63()
	return w
}

// TestWindowHistogramsRoundTrip: a window's histograms cross the wire as
// a nonzero-bucket mask and the nonzero counts, so an empty histogram
// costs 24 bytes and each filled bucket 8 more, and every shape decodes
// to the window it was.
func TestWindowHistogramsRoundTrip(t *testing.T) {
	full := monitor.Hist{Total: 64, Max: 1 << 62}
	for i := range full.Counts {
		full.Counts[i] = uint64(i + 1)
	}
	for _, tc := range []struct {
		name    string
		hist    monitor.Hist
		buckets int
	}{
		{"empty", monitor.Hist{}, 0},
		{"first-bucket", monitor.Hist{Counts: [64]uint64{0: 7}, Total: 7}, 1},
		{"last-bucket", monitor.Hist{Counts: [64]uint64{63: 1}, Total: 1, Max: math.MaxInt64}, 1},
		{"all-buckets", full, 64},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := monitor.WindowStats{Component: "col", EndUS: 10_000, Samples: 10,
				DepthHist: tc.hist, LatencyHist: tc.hist}
			f := wire.Frame{Type: wire.TypeWindows, Shard: 2, Windows: []monitor.WindowStats{w}}
			enc, err := wire.AppendFrame(nil, &f)
			if err != nil {
				t.Fatal(err)
			}
			// Length prefix, type, shard and count, then the window: its
			// name, twelve 8-byte fields and two histograms.
			want := 4 + 1 + 4 + 4 + (4 + len(w.Component) + 12*8 + 2*(24+8*tc.buckets))
			if len(enc) != want {
				t.Errorf("frame is %d bytes, want %d", len(enc), want)
			}
			var got wire.Frame
			if err := wire.DecodeFrame(enc[4:], &got); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, f) {
				t.Fatalf("round trip changed the frame:\n got %+v\nwant %+v", got, f)
			}
		})
	}
}

func randReports(rng *rand.Rand) map[string]core.ObsReport {
	m := make(map[string]core.ObsReport)
	for i := 0; i < 1+rng.Intn(3); i++ {
		name := randName(rng, 1+rng.Intn(8))
		rep := core.ObsReport{Component: name, Level: core.LevelApplication}
		if rng.Intn(2) == 0 {
			rep.App = &core.AppReport{
				SendOps: rng.Uint64(),
				RecvOps: rng.Uint64(),
				State:   "done",
			}
		}
		if rng.Intn(2) == 0 {
			rep.Probes = map[string]int64{"frames": rng.Int63()}
		}
		m[name] = rep
	}
	return m
}

// TestFrameRoundTripFuzzed encodes a fuzzed sequence of frames of every type
// into one shared buffer — the way a conn writer batches them — then walks
// the length prefixes back and requires each decode to reproduce the source
// frame exactly.
func TestFrameRoundTripFuzzed(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const frames = 500
	var want []wire.Frame
	var buf []byte
	for i := 0; i < frames; i++ {
		f := randFrame(rng)
		var err error
		buf, err = wire.AppendFrame(buf, &f)
		if err != nil {
			t.Fatalf("frame %d (%+v): %v", i, f, err)
		}
		want = append(want, f)
	}
	for i, w := range want {
		if len(buf) < 4 {
			t.Fatalf("buffer exhausted before frame %d", i)
		}
		n := binary.LittleEndian.Uint32(buf)
		if int(n) > len(buf)-4 {
			t.Fatalf("frame %d: length prefix %d overruns buffer", i, n)
		}
		var got wire.Frame
		if err := wire.DecodeFrame(buf[4:4+n], &got); err != nil {
			t.Fatalf("frame %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(got, w) {
			t.Fatalf("frame %d round trip:\n got %+v\nwant %+v", i, got, w)
		}
		buf = buf[4+n:]
	}
	if len(buf) != 0 {
		t.Fatalf("%d stray bytes after the last frame", len(buf))
	}
}

// TestTruncatedFrameRejected cuts a representative frame of every type at
// every possible offset: each strict prefix must decode to an error, never a
// partial frame and never a panic. One trailing byte must also be rejected.
func TestTruncatedFrameRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	bg, pg := refGroups(t)
	samples := []wire.Frame{
		{Type: wire.TypeHello, Shard: 3},
		{Type: wire.TypeData, Edge: 9, Bytes: 640, From: "Source.out", Payload: uint64(42)},
		{Type: wire.TypeData, Edge: 1, Payload: unit{ID: 5, Tag: "g", Vals: []int64{1}}},
		{Type: wire.TypeData, Edge: 2, From: "Fetch", Payload: bg},
		{Type: wire.TypeData, Edge: 3, From: "IDCT_1", Payload: pg},
		{Type: wire.TypeEdgeClose, Edge: 2},
		{Type: wire.TypeWindows, Shard: 1, Windows: []monitor.WindowStats{randWindow(rng)}},
		{Type: wire.TypeReports, Shard: 0, Units: 7, Checksum: 0xdead, Reports: randReports(rng)},
		{Type: wire.TypeShardDone, Shard: 1},
		{Type: wire.TypeTerminate},
		{Type: wire.TypeCompKill, Name: "S1W1"},
		{Type: wire.TypeBye},
		{Type: wire.TypeError, Name: "worker 1: boom"},
	}
	for _, f := range samples {
		enc, err := wire.AppendFrame(nil, &f)
		if err != nil {
			t.Fatalf("type %d: %v", f.Type, err)
		}
		body := enc[4:]
		var got wire.Frame
		for cut := 0; cut < len(body); cut++ {
			if err := wire.DecodeFrame(body[:cut], &got); err == nil {
				t.Fatalf("type %d: prefix of %d/%d bytes decoded cleanly", f.Type, cut, len(body))
			}
		}
		withTrailing := append(append([]byte(nil), body...), 0x5a)
		if err := wire.DecodeFrame(withTrailing, &got); err == nil {
			t.Fatalf("type %d: trailing garbage decoded cleanly", f.Type)
		} else if !strings.Contains(err.Error(), "trailing") {
			t.Fatalf("type %d: trailing garbage error does not say so: %v", f.Type, err)
		}
		if err := wire.DecodeFrame(body, &got); err != nil {
			t.Fatalf("type %d: the untruncated body must still decode: %v", f.Type, err)
		}
	}
}

// TestUnknownTypeAndKindRejected covers the tag-validation paths: encoder
// and decoder both refuse frame types outside the protocol, and a data
// frame with an unknown payload kind is an error, not a nil payload.
func TestUnknownTypeAndKindRejected(t *testing.T) {
	for _, typ := range []byte{0, wire.TypeError + 1, 200} {
		if _, err := wire.AppendFrame(nil, &wire.Frame{Type: typ}); err == nil {
			t.Errorf("AppendFrame accepted unknown type %d", typ)
		}
		var f wire.Frame
		if err := wire.DecodeFrame([]byte{typ}, &f); err == nil {
			t.Errorf("DecodeFrame accepted unknown type %d", typ)
		}
	}
	// A hand-built data frame body with payload kind 250.
	body := []byte{wire.TypeData}
	body = binary.LittleEndian.AppendUint32(body, 1)  // edge
	body = binary.LittleEndian.AppendUint64(body, 64) // bytes
	body = binary.LittleEndian.AppendUint32(body, 0)  // empty From
	body = append(body, 250)
	var f wire.Frame
	if err := wire.DecodeFrame(body, &f); err == nil {
		t.Error("unknown payload kind decoded cleanly")
	} else if !strings.Contains(err.Error(), "payload kind") {
		t.Errorf("unknown-kind error does not name the kind: %v", err)
	}

	// A struct payload crosses only through a codec registered for its
	// type: encoding one without fails naming the type, and so does
	// decoding a payload under a codec name this process never registered.
	type stray struct{ N int }
	if _, err := wire.AppendFrame(nil, &wire.Frame{Type: wire.TypeData, Payload: stray{1}}); err == nil ||
		!strings.Contains(err.Error(), "wire_test.stray") {
		t.Errorf("unregistered struct payload: error %v does not name its type", err)
	}
	enc, err := wire.AppendFrame(nil, &wire.Frame{Type: wire.TypeData, Payload: unit{ID: 1, Tag: "u"}})
	if err != nil {
		t.Fatal(err)
	}
	body = bytes.Replace(enc[4:], []byte("wire_test.unit"), []byte("wire_test.tinu"), 1)
	if err := wire.DecodeFrame(body, &f); err == nil || !strings.Contains(err.Error(), "wire_test.tinu") {
		t.Errorf("unregistered codec name: error %v does not name it", err)
	}
}

// TestOversizedFrameRejected: the encoder refuses to emit a body larger
// than MaxFrameBytes, and a window batch count that cannot fit its body is
// rejected before the decoder allocates for it.
func TestOversizedFrameRejected(t *testing.T) {
	big := strings.Repeat("x", wire.MaxFrameBytes) // body = 1 type + 4 len + this
	buf := make([]byte, 0, wire.MaxFrameBytes+64)
	if _, err := wire.AppendFrame(buf, &wire.Frame{Type: wire.TypeError, Name: big}); err == nil {
		t.Error("AppendFrame emitted a frame beyond MaxFrameBytes")
	}

	body := []byte{wire.TypeWindows}
	body = binary.LittleEndian.AppendUint32(body, 0)     // shard
	body = binary.LittleEndian.AppendUint32(body, 1<<30) // claimed windows
	var f wire.Frame
	if err := wire.DecodeFrame(body, &f); err == nil {
		t.Error("absurd window batch count decoded cleanly")
	} else if !strings.Contains(err.Error(), "cannot fit") {
		t.Errorf("window batch error does not explain the bound: %v", err)
	}
}

// bufConn is an in-memory stream: frames written through a Conn come back
// out in order, and reading past the end is a clean io.EOF.
type bufConn struct{ bytes.Buffer }

func (b *bufConn) Close() error { return nil }

// TestConnRoundTripAndEOF drives the stream framing layer: frame counters
// advance, the length prefix reconstitutes each frame, a clean end of
// stream is io.EOF unwrapped, and corrupt length prefixes are rejected
// before any body allocation.
func TestConnRoundTripAndEOF(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	c := wire.NewConn(&bufConn{})
	var want []wire.Frame
	for i := 0; i < 64; i++ {
		f := randFrame(rng)
		if err := c.WriteFrame(&f); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		want = append(want, f)
	}
	if n := c.FramesOut(); n != 64 {
		t.Errorf("FramesOut = %d, want 64", n)
	}
	for i, w := range want {
		var got wire.Frame
		if err := c.ReadFrame(&got); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, w) {
			t.Fatalf("conn frame %d:\n got %+v\nwant %+v", i, got, w)
		}
	}
	if n := c.FramesIn(); n != 64 {
		t.Errorf("FramesIn = %d, want 64", n)
	}
	var f wire.Frame
	if err := c.ReadFrame(&f); err != io.EOF {
		t.Errorf("read past end = %v, want io.EOF", err)
	}

	for _, n := range []uint32{0, wire.MaxFrameBytes + 1} {
		var raw bufConn
		hdr := binary.LittleEndian.AppendUint32(nil, n)
		raw.Write(hdr)
		if err := wire.NewConn(&raw).ReadFrame(&f); err == nil {
			t.Errorf("length prefix %d accepted", n)
		} else if !strings.Contains(err.Error(), "out of range") {
			t.Errorf("length prefix %d: error does not say out of range: %v", n, err)
		}
	}
}

// TestEncodeDataFrameAllocs pins the hot path: a data frame with a scalar
// payload, or one of the decoder's 32-block groups, must encode into a warm
// buffer without allocating — the same budget the trace codec's event
// encode holds.
func TestEncodeDataFrameAllocs(t *testing.T) {
	bg, pg := refGroups(t)
	payloads := []any{nil, true, int(-17), int64(1 << 40), uint64(42), float64(2.75), "unit-99", bg, pg}
	var buf []byte
	for _, p := range payloads {
		f := wire.Frame{Type: wire.TypeData, Edge: 3, Bytes: 128, From: "Source.out", Payload: p}
		var err error
		if buf, err = wire.AppendFrame(buf[:0], &f); err != nil {
			t.Fatalf("payload %T: %v", p, err)
		}
		allocs := testing.AllocsPerRun(200, func() {
			b, err := wire.AppendFrame(buf[:0], &f)
			if err != nil || len(b) == 0 {
				t.Fatal("encode failed")
			}
		})
		if allocs != 0 {
			t.Errorf("payload %T: %.1f allocs per encode, want 0", p, allocs)
		}
	}
}

// refGroups returns a BlockGroup of the reference picture and the
// PixelGroup its IDCT produces: 576 blocks split the decoder's 18 ways, 32
// blocks a group.
func refGroups(t testing.TB) (mjpeg.BlockGroup, mjpeg.PixelGroup) {
	t.Helper()
	pic, err := mjpeg.SynthStream(mjpegapp.RefW, mjpegapp.RefH, 1, mjpeg.EncodeOptions{Quality: mjpegapp.RefQuality})
	if err != nil {
		t.Fatal(err)
	}
	h, err := mjpeg.ParseFrame(pic)
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := h.DecodeBlocks()
	if err != nil {
		t.Fatal(err)
	}
	groups, err := mjpeg.SplitBlocks(0, h, blocks, 18)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(groups[1].Blocks); n != 32 {
		t.Fatalf("reference group holds %d blocks, want 32", n)
	}
	return groups[1], mjpeg.TransformGroup(&groups[1])
}
