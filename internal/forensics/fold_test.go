package forensics_test

import (
	"runtime"
	"testing"

	"michican/internal/experiment"
	"michican/internal/forensics"
	"michican/internal/telemetry"
)

// recordStream runs a vehicle for the given number of bits and returns its
// hub and every event the hub published, in arrival order, without the
// alert transitions the engine ignores.
func recordStream(t testing.TB, spec experiment.FleetVehicleSpec, bits int64) (*telemetry.Hub, []telemetry.Event) {
	t.Helper()
	spec.HorizonBits = bits
	v, err := experiment.NewFleetVehicle(spec)
	if err != nil {
		t.Fatal(err)
	}
	var evs []telemetry.Event
	v.Hub().Subscribe(func(ev telemetry.Event) {
		if ev.Kind != telemetry.EvAlert {
			evs = append(evs, ev)
		}
	})
	v.Advance(bits)
	v.Finalize()
	return v.Hub(), evs
}

// TestForensicsFoldAllocFree gates the engine's per-frame cost on a healthy
// bus at zero allocations: a recorded benign stream is fed one attempt (an
// EvTxStart and the events that arrive before the next one) per run, after
// a warm-up that sizes the engine's scratch, the sequencer's buffer and the
// success logs. An attempt that closes no incident must reuse the engine's
// scratch; allocating one per SOF reads as one or more allocs per attempt.
func TestForensicsFoldAllocFree(t *testing.T) {
	hub, evs := recordStream(t, experiment.FleetVehicleSpec{Seed: 2024, Load: 0.60,
		Mode: experiment.ModeHyperFF, Attack: experiment.FleetAttackNone}, 2_000_000)
	var attempts [][]telemetry.Event
	start := 0
	for i, ev := range evs {
		if ev.Kind == telemetry.EvTxStart && i > start {
			attempts = append(attempts, evs[start:i])
			start = i
		}
	}
	const warm, runs = 2000, 4000
	if len(attempts) < warm+runs+1 {
		t.Fatalf("recorded %d attempts, want at least %d", len(attempts), warm+runs+1)
	}
	eng := forensics.New(hub)
	for _, a := range attempts[:warm] {
		for _, ev := range a {
			eng.Feed(ev)
		}
	}
	next := warm
	if n := testing.AllocsPerRun(runs, func() {
		for _, ev := range attempts[next] {
			eng.Feed(ev)
		}
		next++
	}); n != 0 {
		t.Errorf("%.0f allocs per benign attempt, want 0", n)
	}
	eng.Finalize(evs[len(evs)-1].Time)
	if incs := eng.Incidents(); len(incs) != 0 {
		t.Fatalf("benign stream folded into %d incidents", len(incs))
	}
}

// TestFramesLeakedMatchesLinearScan checks the binary-searched leak count
// against a walk of the attacker's whole success history: for every
// incident of long spoof, DoS and toggle runs, FramesLeaked must equal the
// number of the attacker's completed frames of the incident's ID inside
// [Start, End]. MichiCAN leaks nothing, so every 40th attacker SOF is
// followed by a completion the stream did not carry: the incidents fold
// around those leaks, and the oracle counts them on the same stream.
func TestFramesLeakedMatchesLinearScan(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates 12 Mbit")
	}
	type key struct {
		node telemetry.NodeID
		id   int64
	}
	incidents, leaked := 0, 0
	for _, attack := range []experiment.FleetAttack{experiment.FleetAttackSpoof,
		experiment.FleetAttackDoS, experiment.FleetAttackToggle} {
		hub, recorded := recordStream(t, experiment.FleetVehicleSpec{Seed: 31, Load: 0.30,
			Mode: experiment.ModeSpliceFF, Attack: attack}, 4_000_000)
		ids := make(map[string]telemetry.NodeID)
		for i, name := range hub.Nodes() {
			ids[name] = telemetry.NodeID(i)
		}
		var evs []telemetry.Event
		sofs := 0
		for _, ev := range recorded {
			evs = append(evs, ev)
			if ev.Kind == telemetry.EvTxStart && ev.Node == ids["attacker"] {
				if sofs++; sofs%40 == 0 {
					ev.Kind = telemetry.EvTxSuccess
					evs = append(evs, ev)
				}
			}
		}
		history := make(map[key][]int64)
		eng := forensics.New(hub)
		for _, ev := range evs {
			eng.Feed(ev)
			if ev.Kind == telemetry.EvTxSuccess {
				k := key{ev.Node, ev.A}
				history[k] = append(history[k], ev.Time)
			}
		}
		eng.Finalize(evs[len(evs)-1].Time)
		for _, inc := range eng.Incidents() {
			want := 0
			for _, at := range history[key{ids[inc.Attacker], int64(inc.ID)}] {
				if at >= inc.Start && at <= inc.End {
					want++
				}
			}
			if inc.FramesLeaked != want {
				t.Errorf("%s incident %s@%d: %d frames leaked, linear scan counts %d",
					attack, inc.IDHex, inc.Start, inc.FramesLeaked, want)
			}
			incidents++
			leaked += want
		}
	}
	t.Logf("%d incidents, %d leaked frames", incidents, leaked)
	if incidents < 100 || leaked < 10 {
		t.Fatalf("%d incidents with %d leaked frames: the streams exercise too little", incidents, leaked)
	}
}

// BenchmarkForensicsFold times the engine folding recorded 2 Mbit streams,
// one fresh engine per pass, and reports the cost per wire attempt (per
// EvTxStart): a benign vehicle, where no attempt closes an incident, and
// the Table II spoof duel.
func BenchmarkForensicsFold(b *testing.B) {
	for _, run := range []struct {
		name string
		spec experiment.FleetVehicleSpec
	}{
		{"benign", experiment.FleetVehicleSpec{Seed: 2024, Load: 0.60, Mode: experiment.ModeHyperFF,
			Attack: experiment.FleetAttackNone}},
		{"duel", experiment.FleetVehicleSpec{Seed: 2025, Load: 0.20, Mode: experiment.ModeHyperFF,
			Attack: experiment.FleetAttackSpoof}},
	} {
		b.Run(run.name, func(b *testing.B) {
			hub, evs := recordStream(b, run.spec, 2_000_000)
			attempts := 0
			for _, ev := range evs {
				if ev.Kind == telemetry.EvTxStart {
					attempts++
				}
			}
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			mallocs := ms.Mallocs
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng := forensics.New(hub)
				for _, ev := range evs {
					eng.Feed(ev)
				}
				eng.Finalize(evs[len(evs)-1].Time)
			}
			b.StopTimer()
			runtime.ReadMemStats(&ms)
			n := float64(b.N) * float64(attempts)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/attempt")
			b.ReportMetric(float64(ms.Mallocs-mallocs)/n, "allocs/attempt")
		})
	}
}
