// Package wire is the length-prefixed frame protocol the cluster platform
// speaks over TCP or unix sockets: data messages crossing shard boundaries,
// control operations (producer close, termination, kill), monitor window
// records flowing back to the central aggregator, and the end-of-run report
// merge. The codec follows the trace codec's discipline — manual
// little-endian encoding into a caller-supplied buffer, fixed scratch
// bounds-checked decoding — so the per-message encode path allocates
// nothing for scalar payloads, nor for struct payloads whose registered
// binary codec (Register) appends without allocating, as the MJPEG
// decoder's block and pixel groups do.
//
// Frame layout: a uint32 little-endian body length, then the body; the
// body's first byte is the frame type, and a data or edge-close body
// continues with its uint32 edge. That fixed routing header lets a relay
// forward data frames as Raw bytes, leaving the payload to be decoded once,
// by the receiver. Bodies longer than MaxFrameBytes are rejected on both
// ends, so a corrupt length prefix cannot make a reader allocate unbounded
// memory.
package wire

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"reflect"

	"embera/internal/core"
	"embera/internal/monitor"
)

// Frame types.
const (
	TypeHello     = byte(iota + 1) // worker → coordinator: shard identity
	TypeData                       // message crossing a shard boundary
	TypeEdgeClose                  // producer of an edge terminated
	TypeWindows                    // batch of monitor windows from a worker
	TypeReports                    // worker's final observation reports + workload partials
	TypeShardDone                  // coordinator → workers: shard finished
	TypeTerminate                  // coordinator → workers: interrupt the run
	TypeCompKill                   // kill one named component on its owner
	TypeBye                        // worker → coordinator: clean goodbye
	TypeError                      // fatal error description
)

// MaxFrameBytes bounds a frame body. Large enough for any window batch or
// report set the monitor produces; small enough that a corrupt length
// prefix fails fast instead of exhausting memory.
const MaxFrameBytes = 64 << 20

// Payload kinds for TypeData. The scalar kinds encode without allocating;
// kindCodec carries any other payload through the codec registered for its
// type, as the codec's name followed by the codec's length-prefixed bytes.
const (
	kindNil = byte(iota)
	kindBool
	kindInt
	kindInt64
	kindUint64
	kindFloat64
	kindString
	kindBytes
	kindCodec
)

// Frame is the decoded form of every frame type: a tagged union keyed on
// Type with only the fields that type uses populated.
type Frame struct {
	Type byte

	Shard uint32 // Hello, Windows, Reports, ShardDone
	Edge  uint32 // Data, EdgeClose

	// Data fields.
	Bytes   int64 // modelled message size
	From    string
	Payload any

	// Reports fields: the workload partials and final per-component
	// observation reports of one shard.
	Units    int64
	Checksum uint64
	Reports  map[string]core.ObsReport

	// Windows fields.
	Windows []monitor.WindowStats

	// CompKill / Error text.
	Name string
}

// Raw is one encoded frame, length prefix included: the bytes AppendFrame
// appends and Conn.ReadRaw returns. A relay routes it on Type and Edge and
// writes it on unchanged, without decoding its payload.
type Raw []byte

// Type returns the frame type.
func (r Raw) Type() byte { return r[4] }

// Edge returns the edge of a data or edge-close frame; ok is false for any
// other type and for a body too short to hold the edge.
func (r Raw) Edge() (edge uint32, ok bool) {
	if t := r.Type(); (t != TypeData && t != TypeEdgeClose) || len(r) < 9 {
		return 0, false
	}
	return binary.LittleEndian.Uint32(r[5:]), true
}

// Body returns the frame body, the input DecodeFrame takes.
func (r Raw) Body() []byte { return r[4:] }

// AppendFrame encodes f, appending the length-prefixed frame to buf and
// returning the extended slice. For TypeData with a scalar payload, or a
// payload whose codec appends without allocating, the encode allocates
// nothing beyond buf growth — the same zero-alloc budget as the trace
// codec's event encode.
func AppendFrame(buf []byte, f *Frame) ([]byte, error) {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0) // length back-patched below
	buf = append(buf, f.Type)
	var err error
	switch f.Type {
	case TypeHello, TypeShardDone:
		buf = binary.LittleEndian.AppendUint32(buf, f.Shard)
	case TypeData:
		buf = binary.LittleEndian.AppendUint32(buf, f.Edge)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(f.Bytes))
		buf = appendString(buf, f.From)
		buf, err = appendPayload(buf, f.Payload)
		if err != nil {
			return nil, err
		}
	case TypeEdgeClose:
		buf = binary.LittleEndian.AppendUint32(buf, f.Edge)
	case TypeWindows:
		buf = binary.LittleEndian.AppendUint32(buf, f.Shard)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(f.Windows)))
		for i := range f.Windows {
			buf = appendWindow(buf, &f.Windows[i])
		}
	case TypeReports:
		buf = binary.LittleEndian.AppendUint32(buf, f.Shard)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(f.Units))
		buf = binary.LittleEndian.AppendUint64(buf, f.Checksum)
		js, jerr := json.Marshal(f.Reports)
		if jerr != nil {
			return nil, fmt.Errorf("wire: encoding reports: %w", jerr)
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(js)))
		buf = append(buf, js...)
	case TypeCompKill, TypeError:
		buf = appendString(buf, f.Name)
	case TypeTerminate, TypeBye:
		// type byte only
	default:
		return nil, fmt.Errorf("wire: unknown frame type %d", f.Type)
	}
	body := len(buf) - start - 4
	if body > MaxFrameBytes {
		return nil, fmt.Errorf("wire: frame body %d exceeds %d bytes", body, MaxFrameBytes)
	}
	binary.LittleEndian.PutUint32(buf[start:], uint32(body))
	return buf, nil
}

// DecodeFrame decodes one frame body (the bytes after the length prefix)
// into f. Truncated or trailing-garbage bodies are errors, never partial
// frames.
func DecodeFrame(body []byte, f *Frame) error {
	*f = Frame{}
	d := decoder{b: body}
	f.Type = d.u8()
	switch f.Type {
	case TypeHello, TypeShardDone:
		f.Shard = d.u32()
	case TypeData:
		f.Edge = d.u32()
		f.Bytes = int64(d.u64())
		f.From = d.str()
		f.Payload = d.payload()
	case TypeEdgeClose:
		f.Edge = d.u32()
	case TypeWindows:
		f.Shard = d.u32()
		n := d.u32()
		if d.err == nil && int(n) > len(d.b)/windowMinBytes+1 {
			return fmt.Errorf("wire: window batch of %d cannot fit %d body bytes", n, len(d.b))
		}
		if d.err == nil {
			f.Windows = make([]monitor.WindowStats, n)
			for i := range f.Windows {
				d.window(&f.Windows[i])
			}
		}
	case TypeReports:
		f.Shard = d.u32()
		f.Units = int64(d.u64())
		f.Checksum = d.u64()
		js := d.bytes()
		if d.err == nil {
			if err := json.Unmarshal(js, &f.Reports); err != nil {
				return fmt.Errorf("wire: decoding reports: %w", err)
			}
		}
	case TypeCompKill, TypeError:
		f.Name = d.str()
	case TypeTerminate, TypeBye:
	default:
		if d.err == nil {
			return fmt.Errorf("wire: unknown frame type %d", f.Type)
		}
	}
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		return fmt.Errorf("wire: %d trailing bytes after frame type %d", len(d.b)-d.off, f.Type)
	}
	return nil
}

func appendString(buf []byte, s string) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
	return append(buf, s...)
}

func appendPayload(buf []byte, p any) ([]byte, error) {
	switch v := p.(type) {
	case nil:
		return append(buf, kindNil), nil
	case bool:
		b := byte(0)
		if v {
			b = 1
		}
		return append(buf, kindBool, b), nil
	case int:
		buf = append(buf, kindInt)
		return binary.LittleEndian.AppendUint64(buf, uint64(int64(v))), nil
	case int64:
		buf = append(buf, kindInt64)
		return binary.LittleEndian.AppendUint64(buf, uint64(v)), nil
	case uint64:
		buf = append(buf, kindUint64)
		return binary.LittleEndian.AppendUint64(buf, v), nil
	case float64:
		buf = append(buf, kindFloat64)
		return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v)), nil
	case string:
		buf = append(buf, kindString)
		return appendString(buf, v), nil
	case []byte:
		buf = append(buf, kindBytes)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(v)))
		return append(buf, v...), nil
	default:
		c := codecFor(reflect.TypeOf(p))
		if c == nil {
			return nil, fmt.Errorf("wire: no codec registered for payload type %T", p)
		}
		buf = append(buf, kindCodec)
		buf = appendString(buf, c.name)
		at := len(buf)
		buf = append(buf, 0, 0, 0, 0) // length back-patched below
		buf, err := c.append(buf, p)
		if err != nil {
			return nil, fmt.Errorf("wire: payload %s: %w", c.name, err)
		}
		binary.LittleEndian.PutUint32(buf[at:], uint32(len(buf)-at-4))
		return buf, nil
	}
}

// windowMinBytes is the smallest possible encoded WindowStats (empty
// component name), used to sanity-check batch counts before allocating.
const windowMinBytes = 4 + 9*8 + 4 + 2*(8*histBuckets+8+8)

const histBuckets = 64

func appendWindow(buf []byte, w *monitor.WindowStats) []byte {
	buf = appendString(buf, w.Component)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(w.StartUS))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(w.EndUS))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(w.CoveredUS))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(w.Samples))
	buf = binary.LittleEndian.AppendUint64(buf, w.SendOps)
	buf = binary.LittleEndian.AppendUint64(buf, w.RecvOps)
	buf = binary.LittleEndian.AppendUint64(buf, w.DeltaSendOps)
	buf = binary.LittleEndian.AppendUint64(buf, w.DeltaRecvOps)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(w.SendRate))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(w.RecvRate))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(w.DepthHigh))
	buf = appendHist(buf, &w.DepthHist)
	buf = appendHist(buf, &w.LatencyHist)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(w.MemHigh))
	return buf
}

func appendHist(buf []byte, h *monitor.Hist) []byte {
	for _, c := range h.Counts {
		buf = binary.LittleEndian.AppendUint64(buf, c)
	}
	buf = binary.LittleEndian.AppendUint64(buf, h.Total)
	return binary.LittleEndian.AppendUint64(buf, uint64(h.Max))
}

// decoder is the bounds-checked cursor over a frame body. The first
// out-of-range read poisons it; every accessor thereafter returns zero.
type decoder struct {
	b   []byte
	off int
	err error
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("wire: truncated frame at offset %d of %d", d.off, len(d.b))
	}
}

func (d *decoder) u8() byte {
	if d.err != nil || d.off+1 > len(d.b) {
		d.fail()
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *decoder) u32() uint32 {
	if d.err != nil || d.off+4 > len(d.b) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}

func (d *decoder) u64() uint64 {
	if d.err != nil || d.off+8 > len(d.b) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

func (d *decoder) bytes() []byte {
	n := int(d.u32())
	if d.err != nil || n < 0 || d.off+n > len(d.b) {
		d.fail()
		return nil
	}
	v := d.b[d.off : d.off+n]
	d.off += n
	return v
}

func (d *decoder) str() string { return string(d.bytes()) }

func (d *decoder) payload() any {
	switch kind := d.u8(); kind {
	case kindNil:
		return nil
	case kindBool:
		return d.u8() != 0
	case kindInt:
		return int(int64(d.u64()))
	case kindInt64:
		return int64(d.u64())
	case kindUint64:
		return d.u64()
	case kindFloat64:
		return math.Float64frombits(d.u64())
	case kindString:
		return d.str()
	case kindBytes:
		b := d.bytes()
		if d.err != nil {
			return nil
		}
		return append([]byte(nil), b...)
	case kindCodec:
		name := d.bytes()
		b := d.bytes()
		if d.err != nil {
			return nil
		}
		c := codecNamed(name)
		if c == nil {
			d.err = fmt.Errorf("wire: no codec registered for payload type %q", name)
			return nil
		}
		v, err := c.decode(b)
		if err != nil {
			d.err = fmt.Errorf("wire: payload %s: %w", c.name, err)
			return nil
		}
		return v
	default:
		if d.err == nil {
			d.err = fmt.Errorf("wire: unknown payload kind %d", kind)
		}
		return nil
	}
}

func (d *decoder) window(w *monitor.WindowStats) {
	w.Component = d.str()
	w.StartUS = int64(d.u64())
	w.EndUS = int64(d.u64())
	w.CoveredUS = int64(d.u64())
	w.Samples = int(int64(d.u64()))
	w.SendOps = d.u64()
	w.RecvOps = d.u64()
	w.DeltaSendOps = d.u64()
	w.DeltaRecvOps = d.u64()
	w.SendRate = math.Float64frombits(d.u64())
	w.RecvRate = math.Float64frombits(d.u64())
	w.DepthHigh = int(int64(d.u64()))
	d.hist(&w.DepthHist)
	d.hist(&w.LatencyHist)
	w.MemHigh = int64(d.u64())
}

func (d *decoder) hist(h *monitor.Hist) {
	for i := range h.Counts {
		h.Counts[i] = d.u64()
	}
	h.Total = d.u64()
	h.Max = int64(d.u64())
}
