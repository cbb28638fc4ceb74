//go:build !race

// Excluded under the race detector: its instrumentation allocates on paths
// that are allocation-free in normal builds.

package device

import "testing"

// TestRxQueueAllocs pins the RX queue's reuse: once the queue has been as
// deep as it gets, delivering a packet and draining it allocates nothing,
// whether the queue empties between packets or keeps a standing backlog.
func TestRxQueueAllocs(t *testing.T) {
	words := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	for _, backlog := range []int{0, 3} {
		n, _, _ := newRig(t, DefaultConfig())
		n.DeliverWords(0, words[:backlog])
		cycle := func() {
			n.DeliverWords(0, words)
			for range words {
				if _, ok := n.RxPop(); !ok {
					t.Fatal("RX queue ran dry")
				}
			}
		}
		for range 4 {
			cycle()
		}
		if got := testing.AllocsPerRun(100, cycle); got != 0 {
			t.Errorf("backlog %d: %.1f allocations per deliver-then-drain, want 0", backlog, got)
		}
		if got := n.RxPending(); got != backlog {
			t.Errorf("backlog %d: %d words pending after the drains", backlog, got)
		}
	}
}
