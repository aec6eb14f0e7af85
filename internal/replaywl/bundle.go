// Package replaywl is the trace-replay workload family: "replay:<file>"
// reconstructs an EMBera assembly and its per-component message schedule
// from a recorded binary trace bundle and re-executes it as a
// deterministic benchmark. A bundle pairs a JSON assembly manifest
// (components, inbox capacities, wiring) with the raw event trace in
// internal/trace's zero-alloc binary format; both halves are captured from
// a live application — by embera-trace's capture subcommand, or from a
// running embera-serve assembly via its capture endpoint — so a run
// observed once on any platform becomes a workload every binary, sweep
// and conformance battery can drive by name.
//
// Replay is schedule-faithful, not timing-faithful: each component
// re-issues its recorded sends, receives and compute charges in recorded
// order, with sleeps dropped and inbox capacities widened so the replay
// provably makes progress on every platform. Each send carries a value
// derived from (component, send-sequence); every receive folds the
// arriving value into an order-independent checksum. Because the family
// only accepts complete traces — every message sent was also received —
// the expected unit count, checksum and per-edge flow counts are all
// computable from the bundle alone, and the differential engine checks
// replays exactly as it checks generated workloads.
package replaywl

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"embera/internal/core"
	"embera/internal/trace"
	"embera/internal/wire"
)

// Family is the workload-family prefix: workloads resolve as
// "replay:<file>".
const Family = "replay"

// bundleMagic heads every serialized bundle; the fifth byte is the format
// version. (Raw traces start with "EMBT"; bundles with "EMBR".)
var bundleMagic = [4]byte{'E', 'M', 'B', 'R'}

const bundleVersion = 1

// IsBundleHeader reports whether data begins with the bundle magic — the
// sniff embera-trace uses to tell bundles from raw traces.
func IsBundleHeader(data []byte) bool {
	return len(data) >= 4 && [4]byte(data[:4]) == bundleMagic
}

// Manifest describes the captured assembly: enough to rebuild the
// component graph without the originating workload's code.
type Manifest struct {
	// Platform and Workload name the run the bundle was captured from
	// (informational: replay does not depend on them).
	Platform string `json:"platform"`
	Workload string `json:"workload"`

	Components []ComponentManifest `json:"components"`
}

// ComponentManifest is one captured component.
type ComponentManifest struct {
	Name     string             `json:"name"`
	Provided []ProvidedManifest `json:"provided,omitempty"`
	Required []RequiredManifest `json:"required,omitempty"`
}

// ProvidedManifest is one provided interface (inbox) with its recorded
// capacity.
type ProvidedManifest struct {
	Name     string `json:"name"`
	BufBytes int64  `json:"bufBytes"`
}

// RequiredManifest is one required interface with its connection target.
type RequiredManifest struct {
	Name    string `json:"name"`
	To      string `json:"to"`
	ToIface string `json:"toIface"`
}

// Bundle is a parsed capture: the manifest plus the recorded events in
// emission order.
type Bundle struct {
	Manifest Manifest
	Events   []core.Event
}

// Capture snapshots a finished (or running) application and its recorder
// into a bundle. It fails when the recorder overwrote events — a partial
// trace cannot satisfy the complete-run invariant replay depends on.
func Capture(a *core.App, platformName, workloadName string, rec *trace.Recorder) (*Bundle, error) {
	if total, dropped := rec.Stats(); dropped > 0 {
		return nil, fmt.Errorf("replaywl: recorder dropped %d of %d events; enlarge the trace buffer to capture a replayable run", dropped, total)
	}
	b := &Bundle{
		Manifest: Manifest{Platform: platformName, Workload: workloadName},
		Events:   rec.Events(),
	}
	for _, c := range a.Components() {
		cm := ComponentManifest{Name: c.Name()}
		for _, name := range c.ProvidedNames() {
			cm.Provided = append(cm.Provided, ProvidedManifest{Name: name, BufBytes: c.ProvidedBufBytes(name)})
		}
		for _, conn := range c.Connections() {
			cm.Required = append(cm.Required, RequiredManifest{Name: conn.FromIface, To: conn.To, ToIface: conn.ToIface})
		}
		b.Manifest.Components = append(b.Manifest.Components, cm)
	}
	return b, nil
}

// WriteBundle serializes a bundle: magic, version, then the
// length-prefixed manifest JSON and length-prefixed trace bytes.
func WriteBundle(w io.Writer, b *Bundle) error {
	man, err := json.Marshal(b.Manifest)
	if err != nil {
		return fmt.Errorf("replaywl: encoding manifest: %w", err)
	}
	var tr bytes.Buffer
	if err := trace.Write(&tr, b.Events); err != nil {
		return fmt.Errorf("replaywl: encoding trace: %w", err)
	}
	if len(man) > wire.MaxFrameBytes || tr.Len() > wire.MaxFrameBytes {
		return fmt.Errorf("replaywl: bundle section exceeds %d bytes", wire.MaxFrameBytes)
	}
	buf := make([]byte, 0, len(bundleMagic)+1+4+len(man)+4+tr.Len())
	buf = append(buf, bundleMagic[:]...)
	buf = append(buf, bundleVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(man)))
	buf = append(buf, man...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(tr.Len()))
	buf = append(buf, tr.Bytes()...)
	_, err = w.Write(buf)
	return err
}

// ReadBundle deserializes a bundle written by WriteBundle. Each section is
// read through a reader limited to its declared length, so memory grows
// with the bytes actually present, never with what a length prefix claims;
// a section shorter than its prefix fails.
func ReadBundle(r io.Reader) (*Bundle, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("replaywl: reading bundle header: %w", err)
	}
	if [4]byte(hdr[:4]) != bundleMagic {
		return nil, errors.New("replaywl: bad bundle magic (not an EMBR capture)")
	}
	if hdr[4] != bundleVersion {
		return nil, fmt.Errorf("replaywl: unsupported bundle version %d", hdr[4])
	}
	section := func(what string) ([]byte, error) {
		var n [4]byte
		if _, err := io.ReadFull(r, n[:]); err != nil {
			return nil, fmt.Errorf("replaywl: reading %s length: %w", what, err)
		}
		size := binary.LittleEndian.Uint32(n[:])
		if size > wire.MaxFrameBytes {
			return nil, fmt.Errorf("replaywl: %s section of %d bytes exceeds %d", what, size, wire.MaxFrameBytes)
		}
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(io.LimitReader(r, int64(size))); err != nil {
			return nil, fmt.Errorf("replaywl: reading %s: %w", what, err)
		}
		if buf.Len() != int(size) {
			return nil, fmt.Errorf("replaywl: %s section holds %d of its %d bytes", what, buf.Len(), size)
		}
		return buf.Bytes(), nil
	}
	man, err := section("manifest")
	if err != nil {
		return nil, err
	}
	b := &Bundle{}
	if err := json.Unmarshal(man, &b.Manifest); err != nil {
		return nil, fmt.Errorf("replaywl: decoding manifest: %w", err)
	}
	tr, err := section("trace")
	if err != nil {
		return nil, err
	}
	if b.Events, err = trace.Read(bytes.NewReader(tr)); err != nil {
		return nil, err
	}
	return b, nil
}
