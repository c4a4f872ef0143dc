package store_test

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"testing"

	"michican/internal/experiment"
	"michican/internal/store"
	"michican/internal/telemetry"
)

// goldenHorizon is how far each golden run simulates.
const goldenHorizon = 2_000_000

// goldenRuns are the two runs whose stores are pinned — the benign 60% load
// vehicle and the Table II spoof duel at 20% load, at fixed seeds, on the
// full stepping ladder with a watch engine attached — with their store
// digests (storeDigest). The digests pin the on-disk format: record framing,
// segment rolls, checkpoint files and meta.json. A change to how the store
// is written must not change what it writes, so that stores from earlier
// builds still resume.
var goldenRuns = []struct {
	name   string
	spec   experiment.FleetVehicleSpec
	digest string
}{
	{"benign", experiment.FleetVehicleSpec{Seed: 2024, Load: 0.60, Mode: experiment.ModeHyperFF,
		Attack: experiment.FleetAttackNone, Watch: true, HorizonBits: goldenHorizon},
		"1a5886853bc0caa94f037104b94d6154ad8e7f0c1cbaeb3a38ec1433c9b45cd8"},
	{"duel", experiment.FleetVehicleSpec{Seed: 2025, Load: 0.20, Mode: experiment.ModeHyperFF,
		Attack: experiment.FleetAttackSpoof, Watch: true, HorizonBits: goldenHorizon},
		"4d568a225319d2190e1590a4bff43ee7ff90b438a4d07cd64b9c623b9ac04b6a"},
}

// storeDigest hashes every file a store run leaves behind — segments of all
// three logs, checkpoints and meta.json — in sorted name order, each file's
// name followed by its bytes.
func storeDigest(t *testing.T, dir string) string {
	t.Helper()
	var names []string
	for _, pat := range []string{"*.seg", "checkpoint-*.json", "meta.json"} {
		m, err := filepath.Glob(filepath.Join(dir, pat))
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, m...)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, n := range names {
		data, err := os.ReadFile(n)
		if err != nil {
			t.Fatal(err)
		}
		h.Write([]byte(filepath.Base(n)))
		h.Write([]byte{0})
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestStoreBytesGolden runs each golden spec through StartDurableVehicle with
// periodic checkpoints and compares the store's digest against the recorded
// one.
func TestStoreBytesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates 4 Mbit")
	}
	for _, run := range goldenRuns {
		t.Run(run.name, func(t *testing.T) {
			dir := t.TempDir()
			d, err := experiment.StartDurableVehicle(dir, run.spec, 256<<10, store.FsyncNone,
				store.SinkOptions{CheckpointIntervalBits: 250_000})
			if err != nil {
				t.Fatal(err)
			}
			d.Advance(goldenHorizon)
			if err := d.FinalizeDurable(d.Finalize()); err != nil {
				t.Fatal(err)
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			segs, _ := filepath.Glob(filepath.Join(dir, "events-*.seg"))
			cps, _ := filepath.Glob(filepath.Join(dir, "checkpoint-*.json"))
			if len(segs) < 2 || len(cps) < 2 {
				t.Fatalf("want several event segments and checkpoints, got %d and %d", len(segs), len(cps))
			}
			if got := storeDigest(t, dir); got != run.digest {
				t.Errorf("store digest %s, want %s", got, run.digest)
			}
		})
	}
}

// duelStream is a recorded Table II spoof duel: every event the vehicle's hub
// published over 500 kbit, in arrival order (the order the sink's writer is
// handed them), without the alert transitions the sink does not persist,
// plus the hub's node names.
var duelStream = sync.OnceValues(func() ([]telemetry.Event, []string) {
	const bits = 500_000
	v, err := experiment.NewFleetVehicle(experiment.FleetVehicleSpec{Seed: 2025, Load: 0.20,
		Mode: experiment.ModeHyperFF, Attack: experiment.FleetAttackSpoof, Watch: true, HorizonBits: bits})
	if err != nil {
		panic(err)
	}
	var evs []telemetry.Event
	v.Hub().Subscribe(func(ev telemetry.Event) {
		if ev.Kind != telemetry.EvAlert {
			evs = append(evs, ev)
		}
	})
	v.Advance(bits)
	return evs, v.Hub().Nodes()
})

// BenchmarkSinkPersist times the sink writer's work — canonical ordering,
// encoding, prefix hashing, framing and buffered writes — on a recorded duel
// stream, one fresh store per pass, and reports it per event.
func BenchmarkSinkPersist(b *testing.B) {
	evs, nodes := duelStream()
	dir := filepath.Join(b.TempDir(), "store")
	var mallocs uint64
	var ms runtime.MemStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st, err := store.Create(dir, store.Meta{Kind: "bench", Fsync: store.FsyncNone})
		if err != nil {
			b.Fatal(err)
		}
		h := telemetry.NewHub()
		for _, n := range nodes {
			h.Probe(n)
		}
		sink := store.NewSink(st, h, store.SinkOptions{})
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		b.StartTimer()
		store.PersistBatch(sink, evs)
		if err := st.Flush(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		runtime.ReadMemStats(&ms)
		mallocs += ms.Mallocs - before
		if err := sink.Close(evs[len(evs)-1].Time, false); err != nil {
			b.Fatal(err)
		}
		st.Close()
		os.RemoveAll(dir)
	}
	n := float64(b.N) * float64(len(evs))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/event")
	b.ReportMetric(float64(mallocs)/n, "allocs/event")
}
