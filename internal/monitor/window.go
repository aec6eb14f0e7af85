package monitor

import (
	"math/bits"
	"slices"
	"sort"
	"strings"

	"embera/internal/core"
)

// histBuckets is the bucket count of the log-bucketed histograms: bucket 0
// holds the value 0, bucket i (i >= 1) holds values in [2^(i-1), 2^i).
// 64 buckets cover the full non-negative int64 range.
const histBuckets = 64

// Hist is a fixed-size log-bucketed histogram of non-negative integer
// values (mailbox depths, primitive latencies in µs). The geometric bucket
// layout keeps percentile error bounded at a factor of two while the whole
// histogram stays a flat, mergeable array — the standard shape for
// streaming telemetry.
type Hist struct {
	Counts [histBuckets]uint64
	Total  uint64
	// Max is the largest observed value; quantiles are clamped to it so a
	// bucket's upper edge never reports a value that did not occur.
	Max int64
}

// histBucket maps a value to its bucket index.
func histBucket(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v)) // 1 + floor(log2 v)
}

// Observe adds one value. Negative values count as zero.
func (h *Hist) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.Counts[histBucket(v)]++
	h.Total++
	if v > h.Max {
		h.Max = v
	}
}

// Merge accumulates o into h.
func (h *Hist) Merge(o *Hist) {
	for i := range h.Counts {
		h.Counts[i] += o.Counts[i]
	}
	h.Total += o.Total
	if o.Max > h.Max {
		h.Max = o.Max
	}
}

// moveTo copies h into dst and empties h. It is for histograms built by
// Observe alone: no bucket above Max's holds a count, so only the buckets
// up to it need clearing.
func (h *Hist) moveTo(dst *Hist) {
	*dst = *h
	clear(h.Counts[:histBucket(h.Max)+1])
	h.Total, h.Max = 0, 0
}

// Quantile returns an upper bound for the q-quantile (0 <= q <= 1): the
// inclusive upper edge of the bucket containing the q·Total-th value,
// clamped to the largest observed value (so p99 never exceeds the
// high-water mark). An empty histogram reports 0.
func (h *Hist) Quantile(q float64) int64 {
	if h.Total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(h.Total))
	if rank >= h.Total {
		rank = h.Total - 1
	}
	var seen uint64
	for i := range h.Counts {
		seen += h.Counts[i]
		if seen > rank {
			if i == 0 {
				return 0
			}
			edge := int64(1)<<i - 1 // upper edge of [2^(i-1), 2^i)
			if edge > h.Max || edge < 0 {
				edge = h.Max
			}
			return edge
		}
	}
	return 0
}

// WindowStats is one component's aggregate over one sampling window — the
// unit the monitor hands to its sinks.
type WindowStats struct {
	Component string
	StartUS   int64 // window open (sampler virtual time)
	EndUS     int64 // window close
	Samples   int   // samples aggregated in this window

	// CoveredUS is the interval the counter deltas actually span: from the
	// sample the baseline was taken at to the last sample of this window.
	// It can stretch past EndUS-StartUS when the adaptive overhead
	// controller slowed the sampler (ticks rarer than windows) and shrinks
	// below it when the last tick landed early.
	CoveredUS int64

	// Cumulative operation counters at window close, and their deltas
	// within the window.
	SendOps, RecvOps           uint64
	DeltaSendOps, DeltaRecvOps uint64

	// SendRate / RecvRate are operations per virtual second over the
	// covered interval — not the nominal window length, which would skew
	// the rates whenever sampling was stretched or compressed.
	SendRate, RecvRate float64

	// DepthHigh is the mailbox-depth high-water mark observed in the
	// window; DepthHist is the log-bucketed occupancy distribution over
	// samples.
	DepthHigh int
	DepthHist Hist

	// LatencyHist is the distribution of the mean send-primitive latency
	// (µs) between consecutive samples — the sampled view of how long the
	// component's sends were blocking during the window.
	LatencyHist Hist

	// MemHigh is the OS-level memory high-water mark (bytes); zero when no
	// OS-level samples landed in the window.
	MemHigh int64
}

// Rate is a convenience: ops per virtual second given a window in µs.
func rate(ops uint64, winUS int64) float64 {
	if winUS <= 0 {
		return 0
	}
	return float64(ops) / (float64(winUS) / 1e6)
}

// compAgg is the per-component accumulation state inside the aggregator.
// Of past samples it keeps only what the fold reads. Its histograms are
// built by Observe alone (see Hist.moveTo).
type compAgg struct {
	name string
	// next is the position guess: the accumulator of the sample that
	// followed this component's last time. Samples reach the pump in the
	// same per-shard order every tick, so the guess almost always holds
	// and the fold skips hashing the component name.
	next *compAgg

	// Window-local state, reset at every flush.
	samples   int
	depthHigh int
	memHigh   int64
	depthHist Hist
	latHist   Hist

	// The most recent sample's cumulative counters and time.
	lastSendOps, lastRecvOps uint64
	lastTimeUS               int64

	// Baselines: cumulative counters at the previous window close, for
	// delta/rate computation, and the sample time they were taken at —
	// the anchor of the covered interval the deltas are divided by.
	baseSendOps, baseRecvOps uint64
	baseTimeUS               int64

	// The send counters of the previous occupancy-bearing sample of any
	// window, for inter-sample latency.
	prevSendOps uint64
	prevSendUS  int64
	havePrev    bool
}

// Aggregator folds a stream of samples into per-component window
// aggregates. It is not internally locked: the monitor drives it from a
// single pump flow.
type Aggregator struct {
	startUS int64
	comps   map[string]*compAgg
	order   []*compAgg    // by component name
	cursor  *compAgg      // accumulator of the last sample folded
	out     []WindowStats // reusable flush buffer
}

// NewAggregator creates an aggregator whose first window opens at startUS.
func NewAggregator(startUS int64) *Aggregator {
	return &Aggregator{startUS: startUS, comps: make(map[string]*compAgg)}
}

// Add folds one sample into the current window. Each sample contributes
// the facets its observation level is responsible for: occupancy and
// latency from application/middleware/all samples, OS memory from
// OS/all samples, cumulative counters from any. With one sampler per
// level this keeps coincident ticks (e.g. a 1 ms app sampler and a 5 ms
// OS sampler firing together) from double-weighting the depth histogram.
func (ag *Aggregator) Add(s Sample) { ag.add(&s) }

// add is Add reading the sample where it lies: the pump folds each sample
// straight from its ring slot.
func (ag *Aggregator) add(s *Sample) {
	ca := ag.lookup(s.Component)
	ca.samples++
	if s.Level != core.LevelOS {
		if s.Depth > ca.depthHigh {
			ca.depthHigh = s.Depth
		}
		ca.depthHist.Observe(int64(s.Depth))
		if ca.havePrev {
			if dOps := s.SendOps - ca.prevSendOps; dOps > 0 {
				ca.latHist.Observe((s.SendUS - ca.prevSendUS) / int64(dOps))
			}
		}
		ca.prevSendOps, ca.prevSendUS, ca.havePrev = s.SendOps, s.SendUS, true
	}
	if s.MemBytes > ca.memHigh {
		ca.memHigh = s.MemBytes
	}
	ca.lastSendOps, ca.lastRecvOps, ca.lastTimeUS = s.SendOps, s.RecvOps, s.TimeUS
}

// lookup finds name's accumulator: first by position (the successor of
// the previous sample's accumulator), then by name, creating it on first
// sight. A sample that arrives out of the usual order — a hand-built one,
// or the first of a drain that starts on another shard — still lands on
// its own component; it only costs the hash.
func (ag *Aggregator) lookup(name string) *compAgg {
	prev := ag.cursor
	if prev != nil && prev.next != nil && prev.next.name == name {
		ag.cursor = prev.next
		return prev.next
	}
	ca := ag.comps[name]
	if ca == nil {
		ca = &compAgg{name: name, baseTimeUS: ag.startUS}
		ag.comps[name] = ca
		i, _ := slices.BinarySearchFunc(ag.order, name, func(c *compAgg, n string) int {
			return strings.Compare(c.name, n)
		})
		ag.order = slices.Insert(ag.order, i, ca)
	}
	if prev != nil {
		prev.next = ca
	}
	ag.cursor = ca
	return ca
}

// Flush closes the current window at endUS and returns one WindowStats per
// component that received samples, in component-name order. Components with
// no samples this window are skipped (their counters resume from the old
// baseline next window). The next window opens at endUS.
//
// The returned slice is the aggregator's own flush buffer, valid until the
// next Flush: consumers stream the windows to sinks (which copy what they
// retain) rather than holding the slice, so the per-window allocation is
// paid once per run instead of once per window. Each window is written
// once, field by field, into its slot of that buffer.
func (ag *Aggregator) Flush(endUS int64) []WindowStats {
	n := 0
	for _, ca := range ag.order {
		if ca.samples > 0 {
			n++
		}
	}
	out := slices.Grow(ag.out[:0], n)[:n]
	winUS := endUS - ag.startUS
	k := 0
	for _, ca := range ag.order {
		if ca.samples == 0 {
			continue
		}
		dSend := ca.lastSendOps - ca.baseSendOps
		dRecv := ca.lastRecvOps - ca.baseRecvOps
		// The deltas accumulated between the baseline sample and the last
		// sample of this window — an interval that stretches past the
		// nominal window whenever the adaptive controller slowed the
		// sampler. Dividing by winUS there would inflate the rates.
		covered := ca.lastTimeUS - ca.baseTimeUS
		if covered <= 0 {
			covered = winUS
		}
		// Every field of the slot is written: it still holds an earlier
		// window.
		w := &out[k]
		k++
		w.Component = ca.name
		w.StartUS, w.EndUS = ag.startUS, endUS
		w.Samples = ca.samples
		w.CoveredUS = covered
		w.SendOps, w.RecvOps = ca.lastSendOps, ca.lastRecvOps
		w.DeltaSendOps, w.DeltaRecvOps = dSend, dRecv
		w.SendRate, w.RecvRate = rate(dSend, covered), rate(dRecv, covered)
		w.DepthHigh = ca.depthHigh
		w.MemHigh = ca.memHigh
		ca.depthHist.moveTo(&w.DepthHist)
		ca.latHist.moveTo(&w.LatencyHist)
		ca.baseSendOps, ca.baseRecvOps = ca.lastSendOps, ca.lastRecvOps
		ca.baseTimeUS = ca.lastTimeUS
		ca.samples, ca.depthHigh, ca.memHigh = 0, 0, 0
	}
	ag.startUS = endUS
	ag.out = out
	return out
}

// MergeWindows folds a sequence of WindowStats (typically every window of a
// run) into one cumulative aggregate per component, sorted by name: the
// whole-run view the CLI prints. Rates are recomputed over the merged span.
func MergeWindows(windows []WindowStats) []WindowStats {
	byComp := map[string]*WindowStats{}
	var order []string
	for _, w := range windows {
		t := byComp[w.Component]
		if t == nil {
			cp := w
			byComp[w.Component] = &cp
			order = append(order, w.Component)
			continue
		}
		if w.StartUS < t.StartUS {
			t.StartUS = w.StartUS
		}
		if w.EndUS > t.EndUS {
			t.EndUS = w.EndUS
		}
		t.Samples += w.Samples
		t.CoveredUS += w.CoveredUS
		t.SendOps, t.RecvOps = w.SendOps, w.RecvOps
		t.DeltaSendOps += w.DeltaSendOps
		t.DeltaRecvOps += w.DeltaRecvOps
		if w.DepthHigh > t.DepthHigh {
			t.DepthHigh = w.DepthHigh
		}
		t.DepthHist.Merge(&w.DepthHist)
		t.LatencyHist.Merge(&w.LatencyHist)
		if w.MemHigh > t.MemHigh {
			t.MemHigh = w.MemHigh
		}
	}
	sort.Strings(order)
	out := make([]WindowStats, 0, len(order))
	for _, name := range order {
		t := byComp[name]
		cov := t.CoveredUS
		if cov <= 0 {
			cov = t.EndUS - t.StartUS
		}
		t.SendRate = rate(t.DeltaSendOps, cov)
		t.RecvRate = rate(t.DeltaRecvOps, cov)
		out = append(out, *t)
	}
	return out
}
