package cluster

import (
	"errors"
	"net"
	"strings"
	"sync/atomic"
	"testing"

	"embera/internal/core"
	"embera/internal/wire"
)

// ledgerMachine is a coordinator over one cross-shard edge, Source.out on
// shard 0 to Consumer.in on shard 1, as Run sets it up before the workers
// report.
func ledgerMachine() *Machine {
	m, a := New("ledger", 2, 1)
	src := a.MustNewComponent("Source", func(*core.Ctx) {})
	dst := a.MustNewComponent("Consumer", func(*core.Ctx) {})
	src.MustAddRequired("out")
	dst.MustAddProvided("in", 64)
	a.MustConnect(src, "out", dst, "in")
	m.edges = edgeTable(a)
	m.srcShard, m.dstShard = []int{0}, []int{1}
	m.inbound = make([]RelayQueue, 2)
	m.sent = make([]atomic.Uint64, 1)
	m.received = make([]atomic.Uint64, 1)
	return m
}

// TestLedgerBalancesOrFailsNamed: the workers' reports sum into the edge's
// ledger; a balanced one passes, and an edge whose consumer read fewer
// frames than its producer wrote fails with ErrLedger, naming the edge, both
// workers and both counts. A report of an edge the worker does not touch is
// an error.
func TestLedgerBalancesOrFailsNamed(t *testing.T) {
	m := ledgerMachine()
	producer := &wire.Frame{Ledger: []wire.EdgeCount{{Edge: 0, Sent: 40, Lost: 2}}}
	consumer := &wire.Frame{Ledger: []wire.EdgeCount{{Edge: 0, Received: 40}},
		Inbound: QueueDepth{}, InboundPeak: QueueDepth{Frames: 3, Bytes: 900}}
	if err := m.mergeLedger(0, producer); err != nil {
		t.Fatal(err)
	}
	if err := m.mergeLedger(1, consumer); err != nil {
		t.Fatal(err)
	}
	if err := m.checkLedger(); err != nil {
		t.Fatalf("balanced ledger failed: %v", err)
	}
	if n, remote := m.WireFrames("Source", "out"); !remote || n != 40 {
		t.Errorf("WireFrames = %d, %v; want 40 frames on a cross-shard edge", n, remote)
	}
	if n := m.LostFrames(); n != 2 {
		t.Errorf("LostFrames = %d, want 2", n)
	}
	if q := m.inbound[1]; q.Shard != 1 || q.Peak != (QueueDepth{Frames: 3, Bytes: 900}) {
		t.Errorf("shard 1 inbound queue %+v, want its reported high-water", q)
	}

	m.sent[0].Add(1)
	err := m.checkLedger()
	if !errors.Is(err, ErrLedger) {
		t.Fatalf("unbalanced ledger: %v, want ErrLedger", err)
	}
	for _, want := range []string{"edge 0 Source.out -> Consumer.in", "worker 0 wrote 41", "worker 1 read 40"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("ledger error does not say %q: %v", want, err)
		}
	}

	stray := &wire.Frame{Ledger: []wire.EdgeCount{{Edge: 0, Sent: 1}}}
	if err := ledgerMachine().mergeLedger(2, stray); err == nil {
		t.Error("a report from a shard the edge does not touch was merged")
	}
	if err := ledgerMachine().mergeLedger(0, &wire.Frame{Ledger: []wire.EdgeCount{{Edge: 7}}}); err == nil {
		t.Error("a report of an edge the assembly does not have was merged")
	}
}

// TestControlConnectionRefusesData: data crosses the workers' links only, so
// a data frame on a worker's control connection fails that worker, named.
func TestControlConnectionRefusesData(t *testing.T) {
	m := ledgerMachine()
	coord, worker := net.Pipe()
	defer worker.Close()
	events := make(chan event, 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		m.runReader(&workerProc{shard: 1, conn: wire.NewConn(coord)}, events)
	}()
	data := wire.Frame{Type: wire.TypeData, Edge: 0, From: "Source", Payload: uint64(7)}
	if err := wire.NewConn(worker).WriteFrame(&data); err != nil {
		t.Fatal(err)
	}
	<-done
	ev := <-events
	if want := "cluster: worker 1 sent the coordinator a frame of type 2"; ev.kind != evDied || ev.err == nil || ev.err.Error() != want {
		t.Errorf("event %d, error %v; want the worker failed with %q", ev.kind, ev.err, want)
	}
}
