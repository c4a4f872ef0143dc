package experiment

import (
	"fmt"
	"testing"

	"michican/internal/bus"
	"michican/internal/controller"
	"michican/internal/core"
)

// TestMemoTablesSizedToContents gates the per-node memo footprint: after a
// benign and a spoof vehicle run 2 Mbit, every receive span memo, transmit
// plan front cache and defense scan memo holds at most max(256, 4 × live
// entries) slots. A node that reserved a fixed worst-case table (2^16 span
// slots, 2^15 plan slots) fails here: no node of a 2 Mbit run comes close
// to filling one.
func TestMemoTablesSizedToContents(t *testing.T) {
	for _, spec := range []FleetVehicleSpec{
		{Seed: 2024, Load: 0.60, Mode: ModeHyperFF, Attack: FleetAttackNone, Watch: true},
		{Seed: 2025, Load: 0.20, Mode: ModeHyperFF, Attack: FleetAttackSpoof, Watch: true},
	} {
		t.Run(string(spec.Attack), func(t *testing.T) {
			v, err := NewFleetVehicle(spec)
			if err != nil {
				t.Fatal(err)
			}
			v.Advance(2_000_000)
			tables := 0
			check := func(name string, fp bus.Footprint) {
				t.Logf("%-24s %6d slots %6d live", name, fp.Slots, fp.Live)
				tables++
				if limit := max(256, 4*fp.Live); fp.Slots > limit {
					t.Errorf("%s: %d slots for %d live entries, want at most %d", name, fp.Slots, fp.Live, limit)
				}
			}
			checkController := func(c *controller.Controller) {
				rx, plans := c.MemoFootprint()
				check(c.Name()+" rx spans", rx)
				check(c.Name()+" plans", plans)
			}
			for _, n := range v.bb.Nodes() {
				switch n := n.(type) {
				case *core.ECU:
					checkController(n.Controller)
					check(n.Defense.Name()+" scans", n.Defense.MemoFootprint())
				case interface{ Controller() *controller.Controller }:
					checkController(n.Controller())
				default:
					t.Fatalf("unexpected node %s", fmt.Sprintf("%T", n))
				}
			}
			if want := 5 + 2*len(fleetAttackers(spec.Attack)); tables != want {
				t.Fatalf("checked %d tables, want %d", tables, want)
			}
		})
	}
}
