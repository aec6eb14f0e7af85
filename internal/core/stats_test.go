package core

import (
	"runtime"
	"sync"
	"testing"
)

// TestCachedCountersAppearWithTheirFirstOperation: each interface caches
// its counters on its first operation, inside the write window, so a
// concurrent reader that sees an interface in the per-interface map also
// sees its first operation, and the map always sums to the flat totals.
func TestCachedCountersAppearWithTheirFirstOperation(t *testing.T) {
	const rounds, ops = 200, 64
	for r := 0; r < rounds; r++ {
		st := newStats()
		ifaces := []string{"a", "b", "c", "d"}
		slots := make([]*ifaceCounters, len(ifaces))
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				k := i % len(ifaces)
				st.recordSend(&slots[k], ifaces[k], 8, 1)
			}
		}()
		for done := false; !done; {
			var sum, flat uint64
			var empty string
			st.readConsistent(func() {
				sum, flat, empty = 0, st.sendOps.Load(), ""
				for name, e := range *st.send.Load() {
					n := e.ops.Load()
					if n == 0 {
						empty = name
					}
					sum += n
				}
			})
			if empty != "" {
				t.Fatalf("round %d: interface %s listed before its first send", r, empty)
			}
			if sum != flat {
				t.Fatalf("round %d: per-interface sends sum to %d, flat total %d", r, sum, flat)
			}
			if done = flat == ops; !done {
				runtime.Gosched()
			}
		}
		wg.Wait()
		for k, name := range ifaces {
			if got := (*st.send.Load())[name]; got != slots[k] {
				t.Fatalf("round %d: %s caches %p, the map holds %p", r, name, slots[k], got)
			}
		}
	}
}
