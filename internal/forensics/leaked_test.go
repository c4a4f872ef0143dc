package forensics

import (
	"testing"

	"michican/internal/telemetry"
)

// TestLeakedMatchesLinearScan compares the binary-searched leak count with
// a linear scan for every window over a time-sorted log with repeated
// instants and two nodes, boundaries included.
func TestLeakedMatchesLinearScan(t *testing.T) {
	var log []successRec
	for i := 0; i < 40; i++ {
		log = append(log, successRec{node: telemetry.NodeID(i % 2), at: int64(i / 3 * 5)})
	}
	for start := int64(-2); start < 70; start++ {
		for end := start - 1; end < 72; end++ {
			for node := telemetry.NodeID(0); node < 2; node++ {
				want := 0
				for _, s := range log {
					if s.node == node && s.at >= start && s.at <= end {
						want++
					}
				}
				if got := leaked(log, node, start, end); got != want {
					t.Fatalf("node %d in [%d, %d]: %d leaked, linear scan counts %d", node, start, end, got, want)
				}
			}
		}
	}
}
