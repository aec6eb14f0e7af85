package cluster

import "testing"

// TestInboundQueueDepth follows a worker's inbound queue gauge, in frames
// and bytes, through pushes and pops on two in-edges and the shut that
// drops one edge's residue.
func TestInboundQueueDepth(t *testing.T) {
	var g depthGauge
	qd := func(frames, bytes int) QueueDepth { return QueueDepth{Frames: frames, Bytes: bytes} }
	a, b := newMsgQueue(&g), newMsgQueue(&g)
	check := func(step string, depth, peak QueueDepth) {
		t.Helper()
		if d, p := g.depth(); d != depth || p != peak {
			t.Fatalf("%s: depth %+v peak %+v, want %+v and %+v", step, d, p, depth, peak)
		}
	}
	check("empty", QueueDepth{}, QueueDepth{})
	a.push(injMsg{size: 10})
	b.push(injMsg{size: 300})
	a.push(injMsg{size: 20})
	check("three pushed", qd(3, 330), qd(3, 330))
	if m, ok := a.pop(); !ok || m.size != 10 {
		t.Fatalf("pop returned %+v, ok %v; want the 10-byte frame", m, ok)
	}
	check("one popped", qd(2, 320), qd(3, 330))
	b.pop()
	b.push(injMsg{size: 5000})
	check("frames and bytes peak apart", qd(2, 5020), qd(3, 5020))
	b.shut()
	check("one queue shut", qd(1, 20), qd(3, 5020))
	b.push(injMsg{size: 1})
	check("push after shut", qd(1, 20), qd(3, 5020))
	if _, ok := b.pop(); ok {
		t.Fatal("pop from a shut queue returned a message")
	}
	a.pop()
	check("drained", QueueDepth{}, qd(3, 5020))
}
