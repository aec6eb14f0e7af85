// Package fuzzwl is the seeded random-topology workload generator: instead
// of hand-writing one more pipeline, it derives a whole family of EMBera
// applications — random DAGs of producer, transform, fan-in, fan-out and
// sink components with randomized message sizes, emission periods, compute
// costs and mailbox capacities — fully deterministically from a single
// integer seed. The family registers with the workload registry under the
// parameterized name "rand:<seed>", so every binary, experiment harness,
// exp.Run/RunMatrix sweep and conformance battery can drive generated
// workloads exactly as it drives "mjpeg" or "pipeline".
//
// Every message carries a 64-bit value. A producer emits seed-derived
// values; every non-producer node applies a node-salted splitmix64 round on
// receive and broadcasts the result to each of its outputs; sinks fold the
// arriving values into an order-independent sum. Because the value a sink
// folds depends only on the path the message travelled — never on worker
// scheduling, placement or arrival order — the final checksum and unit
// count are computable from the Spec alone (Expected) and must be identical
// on every platform. That closed-form model is what the differential
// conformance engine (internal/conformance) checks real runs against.
package fuzzwl

import (
	"fmt"
	"math/rand"
)

// Family is the workload-family prefix: workloads resolve as "rand:<seed>".
const Family = "rand"

// Name returns the registry name of the workload for one seed.
func Name(seed int64) string { return fmt.Sprintf("%s:%d", Family, seed) }

// NodeKind classifies a node's role in the generated DAG, derived from its
// in/out degree. The classification is informational (listings, summaries);
// the execution semantics depend only on the degrees themselves.
type NodeKind int

// Node kinds.
const (
	KindProducer  NodeKind = iota // no inputs: emits seed-derived values
	KindTransform                 // one input, one output
	KindFanout                    // >1 output (broadcasts each message)
	KindFanin                     // >1 input, one output
	KindSink                      // no outputs: folds the checksum
)

func (k NodeKind) String() string {
	switch k {
	case KindProducer:
		return "producer"
	case KindTransform:
		return "transform"
	case KindFanout:
		return "fanout"
	case KindFanin:
		return "fanin"
	case KindSink:
		return "sink"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Node is one component of a generated topology.
type Node struct {
	Name  string
	Kind  NodeKind
	Layer int

	// Salt parameterizes the node's mixing round (non-producers).
	Salt uint64
	// Produces is the number of messages a producer emits (broadcast to
	// every output); zero for non-producers.
	Produces int
	// PeriodUS is a producer's inter-message emission period in platform
	// microseconds (0 = emit back to back).
	PeriodUS int64
	// ComputeCycles is the per-message compute cost charged before
	// forwarding or folding.
	ComputeCycles int64
	// OutBytes is the modelled wire size of every message this node sends.
	OutBytes int
	// CapFactor sizes the node's inbox: capacity = CapFactor × the largest
	// message any upstream node sends into it. Factor 1 is a deliberately
	// tight mailbox that forces sender backpressure.
	CapFactor int

	// Outs lists downstream node indices; the required interface feeding
	// Outs[i] is named "out<i>". Ins lists upstream node indices.
	Outs []int
	Ins  []int
}

// Spec is one fully determined random topology: everything about the
// workload except the platform it lands on.
type Spec struct {
	Seed  int64
	Nodes []Node // topological (layer-major) order; producers first
}

// mix is the per-node value transformation: a splitmix64 round salted by
// the receiving node. It depends only on the value and the node, so a
// message's folded value is a pure function of its path through the DAG.
func mix(v, salt uint64) uint64 {
	v += 0x9E3779B97F4A7C15 * (salt + 1)
	v = (v ^ (v >> 30)) * 0xBF58476D1CE4E5B9
	v = (v ^ (v >> 27)) * 0x94D049BB133111EB
	return v ^ (v >> 31)
}

// seedValue derives the seq-th raw value a producer emits.
func seedValue(seed int64, producer, seq int) uint64 {
	return mix(uint64(seed)+uint64(seq), uint64(producer)*0x1000193+0x811C9DC5)
}

// NewSpec generates the topology for one seed. The generator is a pure
// function of the seed: layers, widths, wiring, sizes, periods and
// capacities all come from one seeded PRNG, so two calls — on any platform,
// in any process — produce identical specs.
func NewSpec(seed int64) *Spec {
	rng := rand.New(rand.NewSource(seed*0x9E3779B9 + 0x243F6A8885))
	s := &Spec{Seed: seed}

	layers := 2 + rng.Intn(3) // 2..4 layers
	var layerNodes [][]int    // node indices per layer
	for l := 0; l < layers; l++ {
		width := 1 + rng.Intn(3) // 1..3 nodes per layer
		var idxs []int
		for w := 0; w < width; w++ {
			id := len(s.Nodes)
			n := Node{
				Name:          fmt.Sprintf("n%d", id),
				Layer:         l,
				Salt:          rng.Uint64(),
				ComputeCycles: 500 + int64(rng.Intn(20_000)),
				OutBytes:      16 + rng.Intn(2048),
				CapFactor:     1 + rng.Intn(6),
			}
			if l == 0 {
				n.Produces = 4 + rng.Intn(21) // 4..24 messages
				if rng.Intn(3) == 0 {
					n.PeriodUS = 1 + int64(rng.Intn(40))
				}
			}
			s.Nodes = append(s.Nodes, n)
			idxs = append(idxs, id)
		}
		layerNodes = append(layerNodes, idxs)
	}

	// Wire adjacent layers: every layer-l node feeds 1..width(l+1) distinct
	// nodes of layer l+1, and every layer-l+1 node has at least one
	// producer feeding it.
	for l := 0; l+1 < layers; l++ {
		next := layerNodes[l+1]
		for _, src := range layerNodes[l] {
			deg := 1 + rng.Intn(len(next))
			perm := rng.Perm(len(next))
			for i := 0; i < deg; i++ {
				s.connect(src, next[perm[i]])
			}
		}
		for i, dst := range next {
			if len(s.Nodes[dst].Ins) == 0 {
				s.connect(layerNodes[l][i%len(layerNodes[l])], dst)
			}
		}
	}
	// Occasional skip-layer edges make the DAGs more than stacked
	// pipelines: a node may also feed one node two or more layers deeper.
	for l := 0; l+2 < layers; l++ {
		for _, src := range layerNodes[l] {
			if rng.Intn(4) != 0 {
				continue
			}
			deep := layerNodes[l+2+rng.Intn(layers-l-2)]
			dst := deep[rng.Intn(len(deep))]
			if !s.connected(src, dst) {
				s.connect(src, dst)
			}
		}
	}

	for i := range s.Nodes {
		s.Nodes[i].Kind = classify(&s.Nodes[i])
	}
	return s
}

func (s *Spec) connect(src, dst int) {
	s.Nodes[src].Outs = append(s.Nodes[src].Outs, dst)
	s.Nodes[dst].Ins = append(s.Nodes[dst].Ins, src)
}

func (s *Spec) connected(src, dst int) bool {
	for _, o := range s.Nodes[src].Outs {
		if o == dst {
			return true
		}
	}
	return false
}

func classify(n *Node) NodeKind {
	switch {
	case len(n.Ins) == 0:
		return KindProducer
	case len(n.Outs) == 0:
		return KindSink
	case len(n.Outs) > 1:
		return KindFanout
	case len(n.Ins) > 1:
		return KindFanin
	default:
		return KindTransform
	}
}

// InBytes returns the largest message size any upstream node sends into
// node i — the lower bound every realizable inbox capacity must respect.
func (s *Spec) InBytes(i int) int {
	max := 0
	for _, src := range s.Nodes[i].Ins {
		if b := s.Nodes[src].OutBytes; b > max {
			max = b
		}
	}
	return max
}

// BufBytes returns node i's inbox capacity in bytes.
func (s *Spec) BufBytes(i int) int64 {
	return int64(s.InBytes(i)) * int64(s.Nodes[i].CapFactor)
}

// Processed returns, per node, how many messages the node handles over a
// complete run: a producer handles the messages it emits; every other node
// handles each arriving message once. Arrivals at a node are the sum of its
// upstream nodes' processed counts, because every node broadcasts each
// handled message to all of its outputs.
func (s *Spec) Processed() []int {
	out := make([]int, len(s.Nodes))
	for i, n := range s.Nodes { // Nodes are in topological order
		if len(n.Ins) == 0 {
			out[i] = n.Produces
			continue
		}
		for _, src := range n.Ins {
			out[i] += out[src]
		}
	}
	return out
}

// Expected returns the closed-form outcome of a correct run: the number of
// messages folded at sinks and their order-independent checksum. It walks
// every (producer message × path) pair; generated topologies are small
// enough that the full walk stays in the low thousands of visits.
func (s *Spec) Expected() (units int, checksum uint64) {
	var walk func(node int, v uint64)
	walk = func(node int, v uint64) {
		n := &s.Nodes[node]
		if len(n.Outs) == 0 {
			units++
			checksum += v
			return
		}
		for _, o := range n.Outs {
			walk(o, mix(v, s.Nodes[o].Salt))
		}
	}
	for i, n := range s.Nodes {
		if len(n.Ins) > 0 {
			continue
		}
		for seq := 0; seq < n.Produces; seq++ {
			v := seedValue(s.Seed, i, seq)
			for _, o := range n.Outs {
				walk(o, mix(v, s.Nodes[o].Salt))
			}
		}
	}
	return units, checksum
}

// TotalSends returns the total send operations a correct run performs —
// every handled message leaves on every output.
func (s *Spec) TotalSends() int {
	total := 0
	for i, p := range s.Processed() {
		total += p * len(s.Nodes[i].Outs)
	}
	return total
}

// String summarizes the topology shape.
func (s *Spec) String() string {
	kinds := map[NodeKind]int{}
	layers := 0
	for _, n := range s.Nodes {
		kinds[n.Kind]++
		if n.Layer+1 > layers {
			layers = n.Layer + 1
		}
	}
	return fmt.Sprintf("seed %d: %d nodes / %d layers (%d producer, %d transform, %d fanout, %d fanin, %d sink)",
		s.Seed, len(s.Nodes), layers, kinds[KindProducer], kinds[KindTransform],
		kinds[KindFanout], kinds[KindFanin], kinds[KindSink])
}
