// Package burstwl is the open-loop request/response workload family: a set
// of client components fire requests at a fleet of servers on a bursty
// virtual-time arrival schedule (Poisson, on-off or uniform), each request
// fans out to a subset of the servers, and every server forwards its
// response into one deliberately tight collector inbox. Arrivals are
// open-loop — a client's emission schedule is fixed up front and never
// waits for responses — so offered load is independent of service capacity
// and queueing shows up as real sender backpressure, which the monitor's
// latency histograms observe. The family registers with the workload
// registry as "burst:<seed>" (fully seeded) or "burst:key=val,..."
// (explicit spec), so every binary, sweep and conformance battery can
// drive it exactly as it drives "rand:<seed>".
//
// Every request carries a 64-bit value derived from (seed, client, seq).
// A server applies a server-salted splitmix64 round and forwards the
// result; the collector applies one final fold. The value folded for a
// request therefore depends only on (client, seq, server) — never on
// scheduling or arrival order — so the unit count, checksum and per-edge
// send counts are all computable from the Spec alone.
package burstwl

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
)

// Family is the workload-family prefix: workloads resolve as
// "burst:<seed>" or "burst:key=val,...".
const Family = "burst"

// Name returns the registry name of the seeded workload for one seed.
func Name(seed int64) string { return fmt.Sprintf("%s:%d", Family, seed) }

// Arrival-process modes.
const (
	ModePoisson = "poisson" // exponential inter-arrival gaps
	ModeOnOff   = "onoff"   // back-to-back bursts separated by idle gaps
	ModeUniform = "uniform" // uniform gaps on [0, 2×mean]
)

var modes = []string{ModePoisson, ModeOnOff, ModeUniform}

// Spec is one fully determined burst workload: everything about the
// clients, servers, shapes and schedule except the platform it lands on.
type Spec struct {
	Seed    int64  // schedule/fan-out randomness source
	Clients int    // request-emitting components
	Servers int    // request-serving components
	Fanout  int    // distinct servers each request is sent to
	Reqs    int    // requests per client
	RateHz  int    // mean per-client arrival rate (requests/second)
	Bytes   int    // modelled wire size of requests and responses
	Cap     int    // inbox capacity factor (×Bytes); 1 = tight backpressure
	Cost    int64  // server compute cycles per request
	Mode    string // arrival process: poisson, onoff or uniform
}

// NewSpec derives a full spec from one seed: every dimension comes from a
// seeded PRNG, so two calls — on any platform, in any process — produce
// identical specs.
func NewSpec(seed int64) *Spec {
	rng := rand.New(rand.NewSource(seed*0x6A09E667 + 0x13198A2E03))
	s := &Spec{
		Seed:    seed,
		Clients: 2 + rng.Intn(3), // 2..4
		Servers: 2 + rng.Intn(4), // 2..5
		Reqs:    24 + rng.Intn(37),
		RateHz:  5_000 + rng.Intn(45_001),
		Bytes:   16 + rng.Intn(497),
		Cap:     1 + rng.Intn(4),
		Cost:    500 + int64(rng.Intn(7_500)),
		Mode:    modes[rng.Intn(len(modes))],
	}
	maxFan := s.Servers
	if maxFan > 3 {
		maxFan = 3
	}
	s.Fanout = 1 + rng.Intn(maxFan)
	return s
}

// specKeys is the explicit-form grammar, in canonical order.
var specKeys = []string{"clients", "servers", "fanout", "reqs", "rate", "bytes", "cap", "cost", "mode", "seed"}

// ParseSpec parses the family argument. A bare non-negative integer is the
// seeded form (every dimension PRNG-derived); otherwise the argument is a
// comma-separated key=value list over the explicit grammar, with any
// omitted key taking its default. Out-of-range values (rate=-1, fanout
// beyond the server count, unknown keys, ...) are rejected here, before a
// run starts, so malformed specs surface as uniform usage errors.
func ParseSpec(arg string) (*Spec, error) {
	if seed, err := strconv.ParseInt(arg, 10, 64); err == nil {
		if seed < 0 {
			return nil, fmt.Errorf("burstwl: seed %d must be non-negative", seed)
		}
		return NewSpec(seed), nil
	}
	s := &Spec{ // explicit-form defaults: a small, tail-heavy cell
		Clients: 2, Servers: 3, Fanout: 2, Reqs: 32,
		RateHz: 20_000, Bytes: 64, Cap: 1, Cost: 2_000, Mode: ModePoisson,
	}
	for _, kv := range strings.Split(arg, ",") {
		k, v, ok := strings.Cut(kv, "=")
		if !ok || k == "" || v == "" {
			return nil, fmt.Errorf("burstwl: %q is not key=value (grammar: %s)", kv, strings.Join(specKeys, ","))
		}
		if k == "mode" {
			s.Mode = v
			continue
		}
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("burstwl: %s=%q is not an integer", k, v)
		}
		switch k {
		case "clients":
			s.Clients = int(n)
		case "servers":
			s.Servers = int(n)
		case "fanout":
			s.Fanout = int(n)
		case "reqs":
			s.Reqs = int(n)
		case "rate":
			s.RateHz = int(n)
		case "bytes":
			s.Bytes = int(n)
		case "cap":
			s.Cap = int(n)
		case "cost":
			s.Cost = n
		case "seed":
			s.Seed = n
		default:
			return nil, fmt.Errorf("burstwl: unknown key %q (grammar: %s)", k, strings.Join(specKeys, ","))
		}
	}
	return s, s.Validate()
}

// Validate rejects specs that cannot run or would run unboundedly.
func (s *Spec) Validate() error {
	check := func(name string, got, lo, hi int64) error {
		if got < lo || got > hi {
			return fmt.Errorf("burstwl: %s=%d out of range [%d, %d]", name, got, lo, hi)
		}
		return nil
	}
	for _, err := range []error{
		check("clients", int64(s.Clients), 1, 64),
		check("servers", int64(s.Servers), 1, 64),
		check("fanout", int64(s.Fanout), 1, int64(s.Servers)),
		check("reqs", int64(s.Reqs), 1, 1<<16),
		check("rate", int64(s.RateHz), 1, 1_000_000_000),
		check("bytes", int64(s.Bytes), 1, 1<<20),
		check("cap", int64(s.Cap), 1, 1<<10),
		check("cost", s.Cost, 0, 1<<24),
		check("seed", s.Seed, 0, 1<<62),
	} {
		if err != nil {
			return err
		}
	}
	ok := false
	for _, m := range modes {
		ok = ok || s.Mode == m
	}
	if !ok {
		return fmt.Errorf("burstwl: mode %q is not one of %s", s.Mode, strings.Join(modes, "/"))
	}
	return nil
}

// Arg renders the spec back into a canonical family argument that
// ParseSpec reconstructs bit-identically — the registry name cluster
// workers rebuild the workload from.
func (s *Spec) Arg() string {
	return fmt.Sprintf("clients=%d,servers=%d,fanout=%d,reqs=%d,rate=%d,bytes=%d,cap=%d,cost=%d,mode=%s,seed=%d",
		s.Clients, s.Servers, s.Fanout, s.Reqs, s.RateHz, s.Bytes, s.Cap, s.Cost, s.Mode, s.Seed)
}

// mix is the salted splitmix64 round shared by servers and the collector.
func mix(v, salt uint64) uint64 {
	v += 0x9E3779B97F4A7C15 * (salt + 1)
	v = (v ^ (v >> 30)) * 0xBF58476D1CE4E5B9
	v = (v ^ (v >> 27)) * 0x94D049BB133111EB
	return v ^ (v >> 31)
}

// collectorSalt parameterizes the collector's final fold.
const collectorSalt = 0xA54FF53A

// reqValue derives the raw value client c emits for its seq-th request.
func reqValue(seed int64, c, seq int) uint64 {
	return mix(uint64(seed)+uint64(seq), uint64(c)*0x9E3779B1+0x85EBCA6B)
}

// serverSalt parameterizes server s's response transformation.
func serverSalt(s int) uint64 { return mix(uint64(s)+1, 0xC2B2AE35) }

// Schedule is one client's precomputed open-loop emission plan: GapsUS[q]
// is the virtual-time gap slept before request q is emitted, Targets[q]
// the distinct servers it fans out to. The plan is a pure function of
// (Spec, client), so every platform replays the identical offered load.
type Schedule struct {
	GapsUS  []int64
	Targets [][]int
}

// ClientSchedule derives client c's schedule.
func (s *Spec) ClientSchedule(c int) Schedule {
	gapRNG := rand.New(rand.NewSource(s.Seed*0x9E3779B9 + int64(c)*0x85EBCA77 + 1))
	tgtRNG := rand.New(rand.NewSource(s.Seed*0xC2B2AE3D + int64(c)*0x27D4EB2F + 2))
	meanGap := 1_000_000 / float64(s.RateHz)

	sched := Schedule{GapsUS: make([]int64, s.Reqs), Targets: make([][]int, s.Reqs)}
	inBurst := 0
	for q := 0; q < s.Reqs; q++ {
		var gap float64
		switch s.Mode {
		case ModePoisson:
			gap = gapRNG.ExpFloat64() * meanGap
		case ModeUniform:
			gap = gapRNG.Float64() * 2 * meanGap
		case ModeOnOff:
			// Back-to-back inside a burst; the idle gap between bursts
			// repays the skipped gaps so the mean rate stays RateHz.
			if inBurst == 0 {
				burst := 1 + gapRNG.Intn(8)
				if burst > s.Reqs-q {
					burst = s.Reqs - q
				}
				inBurst = burst
				gap = gapRNG.ExpFloat64() * meanGap * float64(burst)
			}
			inBurst--
		}
		sched.GapsUS[q] = int64(gap)
		perm := tgtRNG.Perm(s.Servers)[:s.Fanout]
		sort.Ints(perm)
		sched.Targets[q] = perm
	}
	return sched
}

// Expected returns the closed-form outcome of a correct run: the number
// of responses folded at the collector and their order-independent
// checksum.
func (s *Spec) Expected() (units int, checksum uint64) {
	for c := 0; c < s.Clients; c++ {
		sched := s.ClientSchedule(c)
		for q := 0; q < s.Reqs; q++ {
			v := reqValue(s.Seed, c, q)
			for _, srv := range sched.Targets[q] {
				units++
				checksum += mix(mix(v, serverSalt(srv)), collectorSalt)
			}
		}
	}
	return units, checksum
}

// EdgeOps returns the closed-form per-edge send counts: toServer[c][s] is
// how many requests client c sends server s; toCollector[s] how many
// responses server s forwards.
func (s *Spec) EdgeOps() (toServer [][]uint64, toCollector []uint64) {
	toServer = make([][]uint64, s.Clients)
	toCollector = make([]uint64, s.Servers)
	for c := 0; c < s.Clients; c++ {
		toServer[c] = make([]uint64, s.Servers)
		sched := s.ClientSchedule(c)
		for _, targets := range sched.Targets {
			for _, srv := range targets {
				toServer[c][srv]++
				toCollector[srv]++
			}
		}
	}
	return toServer, toCollector
}

// TotalSends returns the total send operations a correct run performs.
func (s *Spec) TotalSends() int {
	// Every request send is answered by exactly one collector-bound send.
	return 2 * s.Clients * s.Reqs * s.Fanout
}

// String summarizes the workload shape.
func (s *Spec) String() string {
	return fmt.Sprintf("seed %d: %d clients × %d reqs → fanout %d of %d servers → collector (%s @ %d req/s, %dB, cap ×%d)",
		s.Seed, s.Clients, s.Reqs, s.Fanout, s.Servers, s.Mode, s.RateHz, s.Bytes, s.Cap)
}
