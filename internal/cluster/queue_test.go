package cluster

import "testing"

// TestFrameQueueDepth follows a relay queue's depth and high-water marks,
// in frames and bytes, through pushes, pops and the close that drops its
// residue.
func TestFrameQueueDepth(t *testing.T) {
	q := newFrameQueue()
	check := func(step string, depth, peak QueueDepth) {
		t.Helper()
		if d, p := q.depth(); d != depth || p != peak {
			t.Fatalf("%s: depth %+v peak %+v, want %+v and %+v", step, d, p, depth, peak)
		}
	}
	check("empty", QueueDepth{}, QueueDepth{})
	for _, n := range []int{10, 300, 20} {
		q.push(make([]byte, n))
	}
	check("three pushed", QueueDepth{3, 330}, QueueDepth{3, 330})
	if f, ok := q.pop(); !ok || len(f) != 10 {
		t.Fatalf("pop returned %d bytes, ok %v; want the 10-byte frame", len(f), ok)
	}
	check("one popped", QueueDepth{2, 320}, QueueDepth{3, 330})
	q.pop()
	q.push(make([]byte, 5000))
	check("frames and bytes peak apart", QueueDepth{2, 5020}, QueueDepth{3, 5020})
	if rest := q.close(); len(rest) != 2 {
		t.Fatalf("close returned %d frames, want 2", len(rest))
	}
	check("closed", QueueDepth{}, QueueDepth{3, 5020})
	if q.push(make([]byte, 1)) {
		t.Fatal("push onto a closed queue succeeded")
	}
	check("push after close", QueueDepth{}, QueueDepth{3, 5020})
}
