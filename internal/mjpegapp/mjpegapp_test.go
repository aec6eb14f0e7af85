package mjpegapp_test

import (
	"bytes"
	"testing"

	"embera/internal/core"
	"embera/internal/mjpeg"
	"embera/internal/mjpegapp"
	"embera/internal/os21bind"
	"embera/internal/platform"
	"embera/internal/sim"
	"embera/internal/sti7200"
)

const (
	testW, testH = 64, 48
	testFrames   = 8
	testQuality  = 80
)

// sameImage reports whether two decoded pictures are identical: same
// geometry and pixel format, byte-equal pixels.
func sameImage(a, b *mjpeg.Image) bool {
	return a.W == b.W && a.H == b.H && a.Gray == b.Gray && bytes.Equal(a.Pix, b.Pix)
}

func testStream(t testing.TB) []byte {
	t.Helper()
	data, err := mjpeg.SynthStream(testW, testH, testFrames, mjpeg.EncodeOptions{Quality: testQuality})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// smpCfg / os21Cfg are the platform-adapted paper deployments.
func smpCfg(stream []byte) mjpegapp.Config {
	return mjpegapp.ConfigFor(stream, platform.MustGet("smp").Topology())
}

func os21Cfg(stream []byte) mjpegapp.Config {
	return mjpegapp.ConfigFor(stream, platform.MustGet("sti7200").Topology())
}

func buildOn(t testing.TB, platformName string, cfg mjpegapp.Config) (*mjpegapp.App, platform.Machine) {
	t.Helper()
	m, a := platform.MustGet(platformName).New("mjpeg")
	app, err := mjpegapp.Build(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return app, m
}

func buildSMP(t testing.TB, cfg mjpegapp.Config) (*mjpegapp.App, platform.Machine) {
	return buildOn(t, "smp", cfg)
}

func buildOS21(t testing.TB, cfg mjpegapp.Config) (*mjpegapp.App, platform.Machine) {
	return buildOn(t, "sti7200", cfg)
}

func runApp(t testing.TB, m platform.Machine, app *mjpegapp.App) {
	t.Helper()
	if err := app.Core.Start(); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(int64(10 * 3600 * sim.Second / sim.Microsecond)); err != nil {
		t.Fatal(err)
	}
	if !app.Core.Done() {
		t.Fatal("MJPEG application did not complete")
	}
}

func TestSMPDecodesAllFramesCorrectly(t *testing.T) {
	stream := testStream(t)
	frames, err := mjpeg.SplitStream(stream)
	if err != nil {
		t.Fatal(err)
	}
	decoded := make(map[int]*mjpeg.Image)
	cfg := smpCfg(stream)
	cfg.OnFrame = func(i int, img *mjpeg.Image) { decoded[i] = img }
	app, k := buildSMP(t, cfg)
	runApp(t, k, app)

	if app.FramesDecoded() != testFrames {
		t.Fatalf("decoded %d frames, want %d", app.FramesDecoded(), testFrames)
	}
	// Every frame must match the monolithic reference decoder exactly.
	for i, fr := range frames {
		want, err := mjpeg.Decode(fr)
		if err != nil {
			t.Fatal(err)
		}
		got := decoded[i]
		if got == nil {
			t.Fatalf("frame %d never delivered", i)
		}
		if !sameImage(want, got) {
			t.Errorf("frame %d differs from reference decode", i)
		}
	}
}

func TestSMPTopologyMatchesFigure3(t *testing.T) {
	app, k := buildSMP(t, smpCfg(testStream(t)))
	comps := app.Core.Components()
	if len(comps) != 5 {
		t.Fatalf("components = %d, want 5 (Fetch + 3 IDCT + Reorder)", len(comps))
	}
	runApp(t, k, app)
	// Figure 5: IDCT_1's interfaces.
	idct1 := app.IDCTs[0]
	ifaces := idct1.InterfaceList()
	want := []struct{ name, typ string }{
		{"introspection", "provided"},
		{"_fetchIdct1", "provided"},
		{"introspection", "required"},
		{"idctReorder", "required"},
	}
	for i, w := range want {
		if ifaces[i].Name != w.name || ifaces[i].Type != w.typ {
			t.Errorf("IDCT_1 iface[%d] = %s/%s, want %s/%s",
				i, ifaces[i].Name, ifaces[i].Type, w.name, w.typ)
		}
	}
}

func TestTable2CommunicationShape(t *testing.T) {
	// Fetch: sends 18/frame, receives 0. IDCTx: receives = sends = 6/frame.
	// Reorder: receives 18/frame, sends 0.
	app, k := buildSMP(t, smpCfg(testStream(t)))
	runApp(t, k, app)
	n := uint64(testFrames)
	f := app.Fetch.Snapshot(core.LevelApplication).App
	if f.SendOps != 18*n || f.RecvOps != 0 {
		t.Errorf("Fetch ops = %d/%d, want %d/0", f.SendOps, f.RecvOps, 18*n)
	}
	for i, idct := range app.IDCTs {
		r := idct.Snapshot(core.LevelApplication).App
		if r.SendOps != 6*n || r.RecvOps != 6*n {
			t.Errorf("IDCT_%d ops = %d/%d, want %d/%d", i+1, r.SendOps, r.RecvOps, 6*n, 6*n)
		}
	}
	re := app.Reorder.Snapshot(core.LevelApplication).App
	if re.RecvOps != 18*n || re.SendOps != 0 {
		t.Errorf("Reorder ops = %d/%d, want 0/%d", re.SendOps, re.RecvOps, 18*n)
	}
}

func TestTable1MemoryShape(t *testing.T) {
	// Fetch = bare stack (8392 kB); IDCT = stack + 1 mailbox (10850 kB);
	// Reorder = stack + double mailbox (13308 kB).
	app, k := buildSMP(t, smpCfg(testStream(t)))
	runApp(t, k, app)
	check := func(c *core.Component, wantKB int64) {
		got := c.Snapshot(core.LevelOS).OS.MemBytes / 1024
		if got != wantKB {
			t.Errorf("%s memory = %d kB, want %d", c.Name(), got, wantKB)
		}
	}
	check(app.Fetch, 8392)
	for _, idct := range app.IDCTs {
		check(idct, 10850)
	}
	check(app.Reorder, 13308)
}

func TestTable1ExecutionBalance(t *testing.T) {
	// "having three IDCT components computing in parallel balances the
	// execution times of the three parts": every component's execution time
	// within ~20% of the mean.
	app, k := buildSMP(t, smpCfg(testStream(t)))
	runApp(t, k, app)
	var times []int64
	for _, c := range app.Core.Components() {
		times = append(times, c.Snapshot(core.LevelOS).OS.ExecTimeUS)
	}
	var sum int64
	for _, v := range times {
		sum += v
	}
	mean := float64(sum) / float64(len(times))
	for i, v := range times {
		dev := (float64(v) - mean) / mean
		if dev < -0.2 || dev > 0.2 {
			t.Errorf("component %d exec time %dµs deviates %.0f%% from mean %.0fµs",
				i, v, dev*100, mean)
		}
	}
}

func TestExecutionScalesWithFrameCount(t *testing.T) {
	// Table 1's two input sizes: 5.19x the frames => close to 5.19x the
	// time (slightly sublinear from fixed startup).
	run := func(frames int) int64 {
		stream, err := mjpeg.SynthStream(testW, testH, frames, mjpeg.EncodeOptions{Quality: testQuality})
		if err != nil {
			t.Fatal(err)
		}
		app, k := buildSMP(t, smpCfg(stream))
		runApp(t, k, app)
		return app.Fetch.Snapshot(core.LevelOS).OS.ExecTimeUS
	}
	t4 := run(4)
	t20 := run(20)
	ratio := float64(t20) / float64(t4)
	if ratio < 4.0 || ratio > 5.5 {
		t.Errorf("5x frames gave %.2fx time, want ~5x", ratio)
	}
}

func TestOS21DecodesAllFramesCorrectly(t *testing.T) {
	stream := testStream(t)
	frames, err := mjpeg.SplitStream(stream)
	if err != nil {
		t.Fatal(err)
	}
	decoded := make(map[int]*mjpeg.Image)
	cfg := os21Cfg(stream)
	cfg.OnFrame = func(i int, img *mjpeg.Image) { decoded[i] = img }
	app, k := buildOS21(t, cfg)
	runApp(t, k, app)
	if app.FramesDecoded() != testFrames {
		t.Fatalf("decoded %d frames, want %d", app.FramesDecoded(), testFrames)
	}
	for i, fr := range frames {
		want, _ := mjpeg.Decode(fr)
		if decoded[i] == nil || !sameImage(want, decoded[i]) {
			t.Errorf("frame %d wrong or missing", i)
		}
	}
}

func TestOS21TopologyMatchesFigure7(t *testing.T) {
	app, k := buildOS21(t, os21Cfg(testStream(t)))
	if len(app.Core.Components()) != 3 {
		t.Fatalf("components = %d, want 3 (Fetch-Reorder + 2 IDCT)", len(app.Core.Components()))
	}
	if app.Reorder != nil {
		t.Error("merged topology should have no separate Reorder")
	}
	runApp(t, k, app)
	b := app.Core.Binding().(*os21bind.Binding)
	if b.CPU(app.Fetch).Kind != sti7200.ST40 {
		t.Error("Fetch-Reorder not on the ST40")
	}
	for _, idct := range app.IDCTs {
		if b.CPU(idct).Kind != sti7200.ST231 {
			t.Error("IDCT not on an ST231")
		}
	}
}

func TestTable3MemoryShape(t *testing.T) {
	app, k := buildOS21(t, os21Cfg(testStream(t)))
	runApp(t, k, app)
	if got := app.Fetch.Snapshot(core.LevelOS).OS.MemBytes / 1024; got != 110 {
		t.Errorf("Fetch-Reorder memory = %d kB, want 110", got)
	}
	for _, idct := range app.IDCTs {
		if got := idct.Snapshot(core.LevelOS).OS.MemBytes / 1024; got != 85 {
			t.Errorf("%s memory = %d kB, want 85", idct.Name(), got)
		}
	}
}

func TestTable3ExecutionRatio(t *testing.T) {
	// "the Fetch-Reorder component runs ten times slower than IDCTx
	// components" — accept 5x..20x as preserving the shape.
	app, k := buildOS21(t, os21Cfg(testStream(t)))
	runApp(t, k, app)
	fr := app.Fetch.Snapshot(core.LevelOS).OS.ExecTimeUS
	idct := app.IDCTs[0].Snapshot(core.LevelOS).OS.ExecTimeUS
	ratio := float64(fr) / float64(idct)
	if ratio < 5 || ratio > 20 {
		t.Errorf("Fetch-Reorder/IDCT task_time ratio = %.1f, want ~10", ratio)
	}
}

func TestOS21CommunicationShape(t *testing.T) {
	// Merged: FR sends 18/frame and receives 18/frame; each IDCT 9/9.
	app, k := buildOS21(t, os21Cfg(testStream(t)))
	runApp(t, k, app)
	n := uint64(testFrames)
	f := app.Fetch.Snapshot(core.LevelApplication).App
	if f.SendOps != 18*n || f.RecvOps != 18*n {
		t.Errorf("Fetch-Reorder ops = %d/%d, want %d/%d", f.SendOps, f.RecvOps, 18*n, 18*n)
	}
	for _, idct := range app.IDCTs {
		r := idct.Snapshot(core.LevelApplication).App
		if r.SendOps != 9*n || r.RecvOps != 9*n {
			t.Errorf("%s ops = %d/%d, want %d/%d", idct.Name(), r.SendOps, r.RecvOps, 9*n, 9*n)
		}
	}
}

func TestBuildValidation(t *testing.T) {
	_, a := platform.MustGet("smp").New("x")
	if _, err := mjpegapp.Build(a, mjpegapp.Config{}); err == nil {
		t.Error("empty stream accepted")
	}
	stream := testStream(t)
	if _, err := mjpegapp.Build(a, mjpegapp.Config{Stream: stream, NumIDCT: 0}); err == nil {
		t.Error("zero IDCTs accepted")
	}
	if _, err := mjpegapp.Build(a, mjpegapp.Config{Stream: stream, NumIDCT: 5, GroupsPerFrame: 3}); err == nil {
		t.Error("fewer groups than IDCTs accepted")
	}
	if _, err := mjpegapp.Build(a, mjpegapp.Config{Stream: []byte{1, 2, 3}, NumIDCT: 3}); err == nil {
		t.Error("garbage stream accepted")
	}
}

func TestMergedCapacityCheck(t *testing.T) {
	// A large frame whose per-IDCT results exceed the 25 kB default object
	// must be rejected at build time rather than deadlocking.
	big, err := mjpeg.SynthStream(320, 240, 1, mjpeg.EncodeOptions{Quality: 80})
	if err != nil {
		t.Fatal(err)
	}
	_, a := platform.MustGet("sti7200").New("m")
	cfg := os21Cfg(big)
	if _, err := mjpegapp.Build(a, cfg); err == nil {
		t.Error("oversize merged build accepted")
	}
	// With big enough result buffers it must build.
	cfg.ReorderBufBytes = 512 * 1024
	cfg.IDCTBufBytes = 512 * 1024
	if _, err := mjpegapp.Build(a, cfg); err != nil {
		t.Errorf("enlarged buffers still rejected: %v", err)
	}
}

func TestIDCTFanoutVariants(t *testing.T) {
	// The pipeline must work with 1..6 IDCT components (ablation A4).
	stream := testStream(t)
	for _, n := range []int{1, 2, 4, 6} {
		cfg := smpCfg(stream)
		cfg.NumIDCT = n
		app, k := buildSMP(t, cfg)
		runApp(t, k, app)
		if app.FramesDecoded() != testFrames {
			t.Errorf("fanout %d: decoded %d frames", n, app.FramesDecoded())
		}
	}
}

func TestMessageBytesOverride(t *testing.T) {
	cfg := smpCfg(testStream(t))
	cfg.MessageBytes = 32 * 1024
	app, k := buildSMP(t, cfg)
	runApp(t, k, app)
	st := app.Fetch.Snapshot(core.LevelMiddleware).Middleware.Send["fetchIdct1"]
	if st.Ops == 0 || st.Bytes != st.Ops*32*1024 {
		t.Errorf("override not applied: %+v", st)
	}
}

func TestDeterministicVirtualTimes(t *testing.T) {
	// Two identical runs give identical virtual execution times.
	stream := testStream(t)
	run := func() int64 {
		app, k := buildSMP(t, smpCfg(stream))
		runApp(t, k, app)
		return app.Fetch.Snapshot(core.LevelOS).OS.ExecTimeUS
	}
	if a, b := run(), run(); a != b {
		t.Errorf("nondeterministic execution time: %d vs %d", a, b)
	}
}

// TestWorkloadInstanceCarriesItsStream: a registry-built decoder exposes
// the stream it was built from, the one its options gave or, from a scale
// alone, the one it synthesized, so a sharded run can hand its workers
// those bytes instead of having each synthesize the input again.
func TestWorkloadInstanceCarriesItsStream(t *testing.T) {
	given := testStream(t)
	const frames = 3
	synth, err := mjpeg.SynthStream(mjpegapp.RefW, mjpegapp.RefH, frames, mjpeg.EncodeOptions{Quality: mjpegapp.RefQuality})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		opts platform.Options
		want []byte
	}{
		{"given", platform.Options{Stream: given}, given},
		{"synthesized", platform.Options{Scale: frames}, synth},
	} {
		p := platform.MustGet("smp")
		_, a := p.New("mjpeg")
		inst, err := platform.MustGetWorkload("mjpeg").Build(a, p, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		sc, ok := inst.(interface{ Stream() []byte })
		if !ok {
			t.Fatalf("%s: the decoder instance carries no stream", tc.name)
		}
		if !bytes.Equal(sc.Stream(), tc.want) {
			t.Errorf("%s: the instance carries a %d-byte stream, not the %d bytes it was built from",
				tc.name, len(sc.Stream()), len(tc.want))
		}
	}
}
