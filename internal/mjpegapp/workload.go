package mjpegapp

import (
	"fmt"
	"hash/fnv"

	"embera/internal/core"
	"embera/internal/mjpeg"
	"embera/internal/platform"
	"embera/internal/wire"
)

// DefaultFrames is the synthesized input length when the harness provides
// neither a stream nor a scale.
const DefaultFrames = 100

func init() {
	platform.RegisterWorkload("mjpeg", func() platform.Workload { return &Workload{} })
	// The decoder's messages carry these group types; on the cluster
	// platform they cross shards through their binary codecs.
	wire.Register("mjpeg.BlockGroup", mjpeg.AppendBlockGroup, mjpeg.DecodeBlockGroup)
	wire.Register("mjpeg.PixelGroup", mjpeg.AppendPixelGroup, mjpeg.DecodePixelGroup)
}

// Workload adapts the MJPEG decoder to the platform/workload registry. The
// zero value derives the paper's deployment from the platform topology via
// ConfigFor; a non-nil Cfg.Stream pins an explicit configuration (the
// ablation sweeps construct those directly).
type Workload struct {
	Cfg Config
}

// NewWorkload wraps an explicit decoder configuration.
func NewWorkload(cfg Config) *Workload { return &Workload{Cfg: cfg} }

// Name implements platform.Workload.
func (w *Workload) Name() string { return "mjpeg" }

// Describe implements platform.Workload.
func (w *Workload) Describe() string {
	return "componentized Motion-JPEG decoder (Fetch → IDCTs → Reorder), the paper's case study"
}

// Build implements platform.Workload.
func (w *Workload) Build(a *core.App, p platform.Platform, opts platform.Options) (platform.Instance, error) {
	cfg := w.Cfg
	if cfg.Stream == nil {
		stream := opts.Stream
		if stream == nil {
			frames := opts.Scale
			if frames <= 0 {
				frames = DefaultFrames
			}
			var err error
			stream, err = mjpeg.SynthStream(RefW, RefH, frames, mjpeg.EncodeOptions{Quality: RefQuality})
			if err != nil {
				return nil, err
			}
		}
		cfg = ConfigFor(stream, p.Topology())
	}
	if opts.MessageBytes > 0 {
		cfg.MessageBytes = opts.MessageBytes
	}
	inst := &instance{}
	prev := cfg.OnFrame
	cfg.OnFrame = func(i int, img *mjpeg.Image) {
		inst.sum += frameDigest(i, img)
		if prev != nil {
			prev(i, img)
		}
	}
	app, err := Build(a, cfg)
	if err != nil {
		return nil, err
	}
	inst.app, inst.want = app, app.TotalFrames
	return inst, nil
}

// instance tracks one assembled decoder run.
type instance struct {
	app  *App
	want int
	sum  uint64
	// extra counts frames decoded in other processes, merged in by the
	// cluster coordinator; the local Reorder never runs there.
	extra int
}

// App exposes the assembled application (topology handles, FramesDecoded).
func (in *instance) App() *App { return in.app }

// Stream returns the stream the decoder was built from, given or
// synthesized: the cluster coordinator ships it to its workers, which then
// rebuild the same assembly without synthesizing the input again.
func (in *instance) Stream() []byte { return in.app.cfg.Stream }

func (in *instance) Units() int { return in.app.FramesDecoded() + in.extra }

func (in *instance) Checksum() uint64 { return in.sum }

// MergeShard folds a worker shard's partial results in. Frame digests are
// summed, so the merged checksum is completion-order and process independent.
func (in *instance) MergeShard(units int, checksum uint64) {
	in.extra += units
	in.sum += checksum
}

func (in *instance) Check() error {
	if got := in.Units(); got != in.want {
		return fmt.Errorf("mjpegapp: decoded %d frames, want %d", got, in.want)
	}
	return nil
}

func (in *instance) Summary() string {
	return fmt.Sprintf("decoded %d/%d frames (checksum %016x)", in.Units(), in.want, in.sum)
}

// frameDigest hashes one reassembled frame. Digests are summed so the
// aggregate is independent of completion order, which differs across
// placements while the pixels must not.
func frameDigest(index int, img *mjpeg.Image) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d:%d:%d:%t:", index, img.W, img.H, img.Gray)
	h.Write(img.Pix)
	return h.Sum64()
}
