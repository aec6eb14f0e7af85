package core

import (
	"runtime"
	"sync/atomic"
)

// IfaceStats aggregates the middleware-level instrumentation of one
// direction of one interface: operation count, bytes moved and the time
// spent inside the send/receive primitive (§4.2, "information about the
// execution time of send and the receive operations by instrumenting send
// and receive primitives").
type IfaceStats struct {
	Ops     uint64
	Bytes   uint64
	TotalUS int64
	MaxUS   int64
}

// MeanUS returns the average primitive execution time in microseconds.
func (s IfaceStats) MeanUS() float64 {
	if s.Ops == 0 {
		return 0
	}
	return float64(s.TotalUS) / float64(s.Ops)
}

// ifaceCounters is the live accumulator behind one direction of one
// interface. The fields are atomic so observation flows can read them while
// the owning component's flow updates them; cross-field consistency comes
// from the owning stats seqlock.
type ifaceCounters struct {
	ops     atomic.Uint64
	bytes   atomic.Uint64
	totalUS atomic.Int64
	maxUS   atomic.Int64
}

// add counts one operation. Only the owning flow calls it, inside its
// seqlock write window.
func (e *ifaceCounters) add(bytes int, us int64) {
	e.ops.Add(1)
	e.bytes.Add(uint64(bytes))
	e.totalUS.Add(us)
	if us > e.maxUS.Load() {
		e.maxUS.Store(us)
	}
}

// load reads one entry's fields (consistency is the caller's seqlock).
func (e *ifaceCounters) load() IfaceStats {
	return IfaceStats{
		Ops:     e.ops.Load(),
		Bytes:   e.bytes.Load(),
		TotalUS: e.totalUS.Load(),
		MaxUS:   e.maxUS.Load(),
	}
}

// stats is the per-component instrumentation state maintained by the
// framework without application involvement. Alongside the per-interface
// maps it keeps flat totals so the streaming monitor's SampleAll fast path
// can read them without walking (or copying) the maps.
//
// Concurrency model: exactly one writer — the component's own execution
// flow, which is the only context Ctx.Send/Ctx.Receive run in — and any
// number of readers (monitor samplers, observation services on platforms
// with real concurrency). Instead of a mutex, which made every sampler tick
// contend with the send/receive hot path on the native platform, the
// counters are plain atomics guarded by a seqlock: the writer bumps seq to
// odd, updates, bumps back to even; readers retry while seq is odd or moved
// under them. Writers never block and never wait on readers, so sampling
// can never stall a component. The per-interface maps are copy-on-write
// (an insert publishes a fresh map; entries are stable pointers), letting
// readers walk them without any lock at all. Each interface caches its
// own entry pointer, so the writer looks a name up only on the interface's
// first operation.
type stats struct {
	// seq is the seqlock generation: odd while a write is in progress.
	// Only the owning component's flow writes it.
	seq atomic.Uint64

	send atomic.Pointer[map[string]*ifaceCounters]
	recv atomic.Pointer[map[string]*ifaceCounters]

	sendOps, recvOps     atomic.Uint64
	sendBytes, recvBytes atomic.Uint64
	sendUS, recvUS       atomic.Int64
}

func newStats() *stats {
	st := &stats{}
	emptySend := map[string]*ifaceCounters{}
	emptyRecv := map[string]*ifaceCounters{}
	st.send.Store(&emptySend)
	st.recv.Store(&emptyRecv)
	return st
}

// entry returns the counters for iface in dir, inserting copy-on-write on
// first use. Only the single writer calls it (inside its seqlock window),
// so the copy-and-swap needs no CAS.
func entry(dir *atomic.Pointer[map[string]*ifaceCounters], iface string) *ifaceCounters {
	m := *dir.Load()
	if e := m[iface]; e != nil {
		return e
	}
	e := &ifaceCounters{}
	next := make(map[string]*ifaceCounters, len(m)+1)
	for k, v := range m {
		next[k] = v
	}
	next[iface] = e
	dir.Store(&next)
	return e
}

// recordSend counts one send through the interface named iface, whose
// counters *e caches. The cache is filled on the interface's first send,
// inside the write window, so the interface first appears in a report
// together with that send.
func (st *stats) recordSend(e **ifaceCounters, iface string, bytes int, us int64) {
	st.seq.Add(1) // odd: write in progress
	if *e == nil {
		*e = entry(&st.send, iface)
	}
	(*e).add(bytes, us)
	st.sendOps.Add(1)
	st.sendBytes.Add(uint64(bytes))
	st.sendUS.Add(us)
	st.seq.Add(1) // even: write complete
}

// recordRecv is recordSend for a receive through the interface named
// iface, whose counters *e caches.
func (st *stats) recordRecv(e **ifaceCounters, iface string, bytes int, us int64) {
	st.seq.Add(1)
	if *e == nil {
		*e = entry(&st.recv, iface)
	}
	(*e).add(bytes, us)
	st.recvOps.Add(1)
	st.recvBytes.Add(uint64(bytes))
	st.recvUS.Add(us)
	st.seq.Add(1)
}

// readConsistent runs read under the seqlock, retrying until it observes a
// quiet generation. The writer's critical section is a handful of atomic
// adds, so a retry loop converges in a few spins even against a component
// sending at full rate; the Gosched guards against pathological scheduling
// (reader and writer pinned to the same core).
func (st *stats) readConsistent(read func()) {
	for spins := 0; ; spins++ {
		s1 := st.seq.Load()
		if s1&1 == 0 {
			read()
			if st.seq.Load() == s1 {
				return
			}
		}
		backOff(spins)
	}
}

// backOff yields the processor every 32nd failed seqlock read.
func backOff(spins int) {
	if spins%32 == 31 {
		runtime.Gosched()
	}
}

// totals reads the flat counters consistently: the sampling sweep's read,
// once per component per tick, so it spells out readConsistent's loop
// rather than paying for a closure.
func (st *stats) totals() (sendOps, recvOps, sendBytes, recvBytes uint64, sendUS, recvUS int64) {
	for spins := 0; ; spins++ {
		s1 := st.seq.Load()
		if s1&1 == 0 {
			sendOps = st.sendOps.Load()
			recvOps = st.recvOps.Load()
			sendBytes = st.sendBytes.Load()
			recvBytes = st.recvBytes.Load()
			sendUS = st.sendUS.Load()
			recvUS = st.recvUS.Load()
			if st.seq.Load() == s1 {
				return
			}
		}
		backOff(spins)
	}
}

// ops reads just the operation counters.
func (st *stats) ops() (sendOps, recvOps uint64) {
	st.readConsistent(func() {
		sendOps = st.sendOps.Load()
		recvOps = st.recvOps.Load()
	})
	return
}

// snapshotSend / snapshotRecv deep-copy the per-interface maps for a report.
func (st *stats) snapshotSend() map[string]IfaceStats {
	return st.snapshot(&st.send)
}

func (st *stats) snapshotRecv() map[string]IfaceStats {
	return st.snapshot(&st.recv)
}

func (st *stats) snapshot(dir *atomic.Pointer[map[string]*ifaceCounters]) map[string]IfaceStats {
	var out map[string]IfaceStats
	st.readConsistent(func() {
		m := *dir.Load()
		out = make(map[string]IfaceStats, len(m))
		for k, e := range m {
			out[k] = e.load()
		}
	})
	return out
}
