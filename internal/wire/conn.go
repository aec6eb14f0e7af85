package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"

	"embera/internal/monitor"
)

// linkReadBytes sizes the read buffer of a FileConn: one read syscall takes
// in as many whole frames as fit, so a reader behind on a busy link frames
// a burst from memory instead of paying two syscalls per frame.
const linkReadBytes = 64 << 10

// Conn frames an underlying byte stream (TCP or unix socket). Writes are
// serialized under a mutex into a reusable buffer, so concurrent flows can
// share one conn; reads are single-reader (each peer runs one reader
// goroutine) and go through one buffered reader. The frame counters make
// the wire itself observable.
type Conn struct {
	rw io.ReadWriteCloser
	r  *bufio.Reader

	wmu  sync.Mutex
	wbuf []byte

	rbuf Raw

	framesOut atomic.Uint64
	framesIn  atomic.Uint64

	closeOnce sync.Once
	closeErr  error
}

// NewConn wraps rw in frame framing.
func NewConn(rw io.ReadWriteCloser) *Conn {
	return &Conn{rw: rw, r: bufio.NewReader(rw)}
}

// FileConn frames the stream socket f, as SocketPair returns or a process
// inherits it, reading through a buffer sized for a busy link. It takes f
// over: f is closed in favour of the connection's own descriptor, whether
// or not framing it succeeds.
func FileConn(f *os.File) (*Conn, error) {
	nc, err := net.FileConn(f)
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("wire: socket %s: %w", f.Name(), err)
	}
	return &Conn{rw: nc, r: bufio.NewReaderSize(nc, linkReadBytes)}, nil
}

// WriteError is the error WriteFrame returns when the stream refuses an
// encoded frame, as when the peer has closed its end. Any other error from
// WriteFrame is an encoding error, and nothing was written.
type WriteError struct {
	Type byte  // the frame's type
	Err  error // the stream's error
}

func (e *WriteError) Error() string {
	return fmt.Sprintf("wire: write frame type %d: %v", e.Type, e.Err)
}

func (e *WriteError) Unwrap() error { return e.Err }

// WriteFrame encodes and writes one frame. Safe for concurrent use.
func (c *Conn) WriteFrame(f *Frame) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	buf, err := AppendFrame(c.wbuf[:0], f)
	if err != nil {
		return err
	}
	c.wbuf = buf[:0]
	if _, err := c.rw.Write(buf); err != nil {
		return &WriteError{Type: f.Type, Err: err}
	}
	c.framesOut.Add(1)
	return nil
}

// ReadFrame reads and decodes the next frame into f. Only one goroutine may
// read. io.EOF is returned unwrapped on a clean end of stream.
func (c *Conn) ReadFrame(f *Frame) error {
	raw, err := c.ReadRaw(c.rbuf)
	if err != nil {
		return err
	}
	c.rbuf = raw
	return DecodeFrame(raw.Body(), f)
}

// ReadRaw reads the next frame without decoding it and returns the whole
// frame, length prefix included. The frame lands in buf's memory when it
// fits: pass nil for a frame the caller keeps, or the previous frame to
// reuse it. Only one goroutine may read. io.EOF is returned unwrapped on a
// clean end of stream; every other error is the stream's, never the
// body's, which only DecodeFrame inspects.
func (c *Conn) ReadRaw(buf Raw) (Raw, error) {
	dst := append(buf[:0], 0, 0, 0, 0)
	hdr := dst[:4]
	if _, err := io.ReadFull(c.r, hdr); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("wire: read frame header: %w", err)
	}
	n := binary.LittleEndian.Uint32(hdr)
	if n == 0 || n > MaxFrameBytes {
		return nil, fmt.Errorf("wire: frame body of %d bytes out of range (max %d)", n, MaxFrameBytes)
	}
	dst = append(dst, make([]byte, n)...)
	if _, err := io.ReadFull(c.r, dst[4:]); err != nil {
		return nil, fmt.Errorf("wire: read frame body: %w", err)
	}
	c.framesIn.Add(1)
	return dst, nil
}

// Close tears the underlying stream down. Idempotent: concurrent teardown
// paths (orchestrator shutdown racing a reader error) share one close.
func (c *Conn) Close() error {
	c.closeOnce.Do(func() { c.closeErr = c.rw.Close() })
	return c.closeErr
}

// FramesOut reports frames successfully written.
func (c *Conn) FramesOut() uint64 { return c.framesOut.Load() }

// FramesIn reports frames successfully read.
func (c *Conn) FramesIn() uint64 { return c.framesIn.Load() }

// WindowSink is the remote monitor sink flavor: each window the worker's
// pump flushes is framed and written to the coordinator, which ingests it
// into its own monitor so sharded windows join the same WindowRecord stream
// embera-serve already brokers. It satisfies monitor.Sink.
type WindowSink struct {
	conn  *Conn
	shard uint32
}

// NewWindowSink builds the remote sink for one worker's monitor.
func NewWindowSink(conn *Conn, shard int) *WindowSink {
	return &WindowSink{conn: conn, shard: uint32(shard)}
}

// WriteWindow implements monitor.Sink.
func (s *WindowSink) WriteWindow(w monitor.WindowStats) error {
	f := Frame{Type: TypeWindows, Shard: s.shard, Windows: []monitor.WindowStats{w}}
	return s.conn.WriteFrame(&f)
}
