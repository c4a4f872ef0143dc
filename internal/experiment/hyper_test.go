package experiment

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"michican/internal/attack"
	"michican/internal/bus"
	"michican/internal/can"
	"michican/internal/controller"
	"michican/internal/restbus"
	"michican/internal/telemetry"
	"michican/internal/trace"
)

// These tests pin the hyperperiod super-splice tier's two contracts in
// isolation from the fuzz sweep: bit-exact identity against per-bit stepping
// on a schedule whose hyperperiod the tier can actually chain, and memo
// invalidation across super-window boundaries — an attacker attaching between
// chained windows or mid-hyperperiod, and a node detaching mid-hyperperiod —
// where a stale-generation memo must never be served.

const (
	// hyperTestH is the harmonic matrix's schedule hyperperiod in bits at
	// 50 kbit/s: periods 5/10/20 ms are 250/500/1000 bits, lcm 1000.
	hyperTestH = int64(1000)
	// hyperTestTotal covers the fingerprint working set plus a hit region:
	// the per-message rolling counters advance 4/2/1 per hyperperiod, so the
	// joint sequence state recurs only after 256 hyperperiods (256k bits);
	// everything past that replays from memos.
	hyperTestTotal = 700 * hyperTestH
)

// harmonicMatrix is a three-message schedule with strictly harmonic periods,
// so the hyperperiod is small enough for chains to close and recur inside a
// unit test (7 splice windows per 1000-bit hyperperiod).
func harmonicMatrix() *restbus.Matrix {
	m := &restbus.Matrix{Vehicle: "fuzz", Bus: "hyper"}
	for i, id := range []can.ID{0x100, 0x200, 0x300} {
		m.Messages = append(m.Messages, restbus.Message{
			ID:          id,
			Transmitter: fmt.Sprintf("ecu-%d", i),
			DLC:         i + 1,
			Period:      time.Duration(5*(1<<i)) * time.Millisecond,
		})
	}
	return m
}

// hyperOutcome is everything the hyper differentials compare.
type hyperOutcome struct {
	Bits                []can.Level
	TEC, REC            []int
	TxSuccess, RxFrames []int
}

// hyperProbe captures bus-internal observations taken inside the mutation
// callback, at the Run boundary where external mutation is legal.
type hyperProbe struct {
	genBefore, genAfter uint64
	memosBefore         int
	hyperBitsAt         int64
}

// newHyperBus builds a bus stepping in the given mode and the harmonic
// matrix's replayer (not yet attached). The hyper arm uses production
// wiring: the chain target is the matrix's schedule hyperperiod.
func newHyperBus(t *testing.T, mode diffMode) (*bus.Bus, *restbus.Replayer) {
	t.Helper()
	matrix := harmonicMatrix()
	bb := bus.New(bus.Rate50k)
	bb.SetFastForward(mode != diffExact)
	bb.SetFrameFastForward(mode != diffExact)
	bb.SetContendFastForward(mode == diffContendFF || mode == diffSpliceFF || mode == diffHyperFF)
	bb.SetSpliceFastForward(mode == diffSpliceFF || mode == diffHyperFF)
	bb.SetHyperFastForward(mode == diffHyperFF)
	if mode == diffHyperFF {
		h := matrix.HyperperiodBits(bus.Rate50k)
		if h != hyperTestH {
			t.Fatalf("harmonic matrix hyperperiod = %d bits, want %d", h, hyperTestH)
		}
		bb.SetHyperChainBits(h)
	}
	return bb, restbus.NewReplayer("restbus", matrix, bus.Rate50k, rand.New(rand.NewSource(11)))
}

// runHyperScenario replays the harmonic matrix alongside two pure-receiver
// controllers (so a receiver still ACKs after one leaves), optionally
// mutating the node set at bit mutateAt (a Run boundary), and returns the
// resolved trace plus the surviving nodes' counters.
func runHyperScenario(t *testing.T, mode diffMode, total, mutateAt int64,
	mutate func(bb *bus.Bus, leaver *controller.Controller, ctls *[]*controller.Controller)) (hyperOutcome, *bus.Bus) {
	t.Helper()
	bb, rep := newHyperBus(t, mode)
	bb.Attach(rep)
	leaver := controller.New(controller.Config{Name: "leaver", AutoRecover: true})
	bb.Attach(leaver)
	stayer := controller.New(controller.Config{Name: "stayer", AutoRecover: true})
	bb.Attach(stayer)
	rec := trace.NewRecorder()
	bb.AttachTap(rec)
	ctls := []*controller.Controller{rep.Controller(), leaver, stayer}

	if mutateAt > 0 {
		bb.Run(mutateAt)
		mutate(bb, leaver, &ctls)
		bb.Run(total - mutateAt)
	} else {
		bb.Run(total)
	}

	var out hyperOutcome
	out.Bits = rec.Bits()
	for _, c := range ctls {
		st := c.Stats()
		out.TEC = append(out.TEC, c.TEC())
		out.REC = append(out.REC, c.REC())
		out.TxSuccess = append(out.TxSuccess, st.TxSuccess)
		out.RxFrames = append(out.RxFrames, st.RxSuccess)
	}
	return out, bb
}

// compareHyperOutcome fails on the first wire-trace or counter divergence.
func compareHyperOutcome(t *testing.T, label string, a, b hyperOutcome) {
	t.Helper()
	if !reflect.DeepEqual(a.Bits, b.Bits) {
		i := 0
		for i < len(a.Bits) && i < len(b.Bits) && a.Bits[i] == b.Bits[i] {
			i++
		}
		t.Fatalf("%s: wire traces diverge at bit %d (%d bits vs %d bits)",
			label, i, len(a.Bits), len(b.Bits))
	}
	a.Bits, b.Bits = nil, nil
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("%s: counters diverge:\n%+v\nvs\n%+v", label, a, b)
	}
}

// TestHyperFFIdentityHarmonic is the tier's identity proof on a schedule it
// can fully chain: once the rolling-counter rotation closes, the run replays
// hyperperiod after hyperperiod from memos, and the result must stay
// bit-identical to both the splice arm and exact stepping.
func TestHyperFFIdentityHarmonic(t *testing.T) {
	exact, _ := runHyperScenario(t, diffExact, hyperTestTotal, 0, nil)
	splice, sbb := runHyperScenario(t, diffSpliceFF, hyperTestTotal, 0, nil)
	hyper, hbb := runHyperScenario(t, diffHyperFF, hyperTestTotal, 0, nil)

	if sbb.SpliceForwardedBits() == 0 {
		t.Error("splice fast path never engaged on the splice arm")
	}
	if sbb.HyperForwardedBits() != 0 {
		t.Error("hyper path engaged on the splice arm while disabled")
	}
	if hbb.HyperMemoCount() == 0 {
		t.Error("hyper arm sealed no super-window memos")
	}
	// Past the 256-hyperperiod warm-up (~37% of the run) nearly every
	// hyperperiod should apply as one memo; a fifth of the run is a loose
	// floor that still proves steady-state replay rather than a lucky hit.
	if got := hbb.HyperForwardedBits(); got < hyperTestTotal/5 {
		t.Errorf("hyper path carried %d of %d bits, want at least %d", got, hyperTestTotal, hyperTestTotal/5)
	}
	compareHyperOutcome(t, "exact vs splice-ff", exact, splice)
	compareHyperOutcome(t, "splice-ff vs hyper-ff", splice, hyper)
}

// TestHyperMemoInvalidationOnAttach attaches a fabrication attacker after the
// memo table is hot and applying — once exactly at a chain edge (between
// chained super-windows) and once mid-hyperperiod. The attach must bump the
// hyper generation, every sealed memo must go stale, and — since the attacker
// does not implement Hypering — the tier must pin off without ever serving a
// pre-attack memo. The run must stay bit-identical to exact stepping through
// the same attach.
func TestHyperMemoInvalidationOnAttach(t *testing.T) {
	for _, tc := range []struct {
		name string
		at   int64
	}{
		{"between-chained-windows", 300 * hyperTestH},
		{"mid-hyperperiod", 300*hyperTestH + hyperTestH/2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			attach := func(probe *hyperProbe) func(*bus.Bus, *controller.Controller, *[]*controller.Controller) {
				return func(bb *bus.Bus, _ *controller.Controller, ctls *[]*controller.Controller) {
					if probe != nil {
						probe.genBefore = bb.HyperGen()
						probe.memosBefore = bb.HyperMemoCount()
						probe.hyperBitsAt = bb.HyperForwardedBits()
					}
					att := attack.NewFabrication("attacker", 0x100, []byte{0xA5, 0x5A}, 1500)
					bb.Attach(att)
					*ctls = append(*ctls, att.Controller())
					if probe != nil {
						probe.genAfter = bb.HyperGen()
					}
				}
			}
			exact, _ := runHyperScenario(t, diffExact, hyperTestTotal, tc.at, attach(nil))
			var probe hyperProbe
			hyper, hbb := runHyperScenario(t, diffHyperFF, hyperTestTotal, tc.at, attach(&probe))

			if probe.memosBefore == 0 {
				t.Error("no memos sealed before the attach — invalidation had nothing to invalidate")
			}
			if probe.hyperBitsAt == 0 {
				t.Error("hyper path never applied before the attach")
			}
			if probe.genAfter != probe.genBefore+1 {
				t.Errorf("Attach bumped hyper generation %d -> %d, want +1", probe.genBefore, probe.genAfter)
			}
			// The attacker pins the tier: if any post-attach bits were hyper-
			// forwarded, a stale-generation memo was served.
			if got := hbb.HyperForwardedBits(); got != probe.hyperBitsAt {
				t.Errorf("hyper path advanced %d bits after a non-Hypering attacker joined", got-probe.hyperBitsAt)
			}
			compareHyperOutcome(t, "exact vs hyper-ff with attach at "+tc.name, exact, hyper)
		})
	}
}

// TestHyperMemoInvalidationOnDetach detaches one pure-receiver controller
// mid-hyperperiod, after memos sealed over the four-node set have been
// applying. The detach bumps the generation (per-node memo entries are
// indexed by attachment order), so every old memo is stale; the tier must
// re-record under the new generation and re-engage, all while staying
// bit-identical to exact stepping through the same detach.
func TestHyperMemoInvalidationOnDetach(t *testing.T) {
	detachAt := 300*hyperTestH + hyperTestH/2
	detach := func(probe *hyperProbe) func(*bus.Bus, *controller.Controller, *[]*controller.Controller) {
		return func(bb *bus.Bus, leaver *controller.Controller, ctls *[]*controller.Controller) {
			if probe != nil {
				probe.genBefore = bb.HyperGen()
				probe.memosBefore = bb.HyperMemoCount()
				probe.hyperBitsAt = bb.HyperForwardedBits()
			}
			if !bb.Detach(leaver) {
				panic("leaver not attached at detach time")
			}
			*ctls = append((*ctls)[:1], (*ctls)[2:]...) // replayer and stayer survive
			if probe != nil {
				probe.genAfter = bb.HyperGen()
			}
		}
	}
	exact, _ := runHyperScenario(t, diffExact, hyperTestTotal, detachAt, detach(nil))
	var probe hyperProbe
	hyper, hbb := runHyperScenario(t, diffHyperFF, hyperTestTotal, detachAt, detach(&probe))

	if probe.memosBefore == 0 {
		t.Error("no memos sealed before the detach — invalidation had nothing to invalidate")
	}
	if probe.hyperBitsAt == 0 {
		t.Error("hyper path never applied before the detach")
	}
	if probe.genAfter != probe.genBefore+1 {
		t.Errorf("Detach bumped hyper generation %d -> %d, want +1", probe.genBefore, probe.genAfter)
	}
	// The surviving node set is still all-Hypering, so after re-recording the
	// post-detach rotation the tier must apply fresh memos again: hyper bits
	// strictly above the pre-detach count prove the stale memos were replaced,
	// not reused (reuse would have diverged the trace below).
	if got := hbb.HyperForwardedBits(); got <= probe.hyperBitsAt {
		t.Errorf("hyper path never re-engaged after the detach (%d bits, %d before)", got, probe.hyperBitsAt)
	}
	compareHyperOutcome(t, "exact vs hyper-ff with mid-hyperperiod detach", exact, hyper)
}

// fpCountingReplayer counts the bus's HyperFP calls on a replayer. Embedding
// keeps every other capability of the replayer, so the bus sees the same
// node.
type fpCountingReplayer struct {
	*restbus.Replayer
	calls int
}

func (r *fpCountingReplayer) HyperFP(now bus.BitTime, hub *telemetry.Hub) (uint64, bool) {
	r.calls++
	return r.Replayer.HyperFP(now, hub)
}

// hubHyperRun is one arm of the capture-decline differential.
type hubHyperRun struct {
	out      hyperOutcome
	bb       *bus.Bus
	counters telemetry.CounterSnapshot
	fpCalls  int
}

// runHyperHubScenario replays the harmonic matrix with a receiver on a bus
// whose every node reports into hub, so the hyper tier's capture policy is
// the hub's. The replayer is attached first, so it is fingerprinted first
// at every anchor.
func runHyperHubScenario(t *testing.T, mode diffMode, hub *telemetry.Hub) hubHyperRun {
	t.Helper()
	bb, rep := newHyperBus(t, mode)
	bb.SetTelemetry(hub, "bus")
	rep.SetTelemetry(hub)
	counting := &fpCountingReplayer{Replayer: rep}
	bb.Attach(counting)
	rx := controller.New(controller.Config{Name: "rx", AutoRecover: true})
	rx.SetTelemetry(hub)
	bb.Attach(rx)
	rec := trace.NewRecorder()
	bb.AttachTap(rec)
	bb.Run(hyperTestTotal)

	run := hubHyperRun{bb: bb, counters: hub.Registry().SnapshotCounters(), fpCalls: counting.calls}
	run.out.Bits = rec.Bits()
	for _, c := range []*controller.Controller{rep.Controller(), rx} {
		st := c.Stats()
		run.out.TEC = append(run.out.TEC, c.TEC())
		run.out.REC = append(run.out.REC, c.REC())
		run.out.TxSuccess = append(run.out.TxSuccess, st.TxSuccess)
		run.out.RxFrames = append(run.out.RxFrames, st.RxSuccess)
	}
	return run
}

// busTiers reads a bus's per-tier forwarded-bit counters.
func busTiers(bb *bus.Bus) [5]int64 {
	return [5]int64{bb.IdleForwardedBits(), bb.FrameForwardedBits(),
		bb.ContendForwardedBits(), bb.SpliceForwardedBits(), bb.HyperForwardedBits()}
}

// TestHyperDeclineCaptureDenied pins the hyper tier's early decline: on a
// hub that refuses capture, no memo can ever be recorded or hit, so the bus
// must decline every anchor before fingerprinting a single node, count the
// decline on the bus node, and otherwise behave exactly as the hyper tier
// always has there — which is the splice-ff ladder, bit for bit and counter
// for counter. With capture allowed the tier still records and replays.
func TestHyperDeclineCaptureDenied(t *testing.T) {
	exact := runHyperHubScenario(t, diffExact, telemetry.NewHub())
	splice := runHyperHubScenario(t, diffSpliceFF, telemetry.NewHub())
	denied := runHyperHubScenario(t, diffHyperFF, telemetry.NewHub())

	if denied.fpCalls != 0 {
		t.Errorf("capture-denied hyper arm fingerprinted the replayer %d times, want 0", denied.fpCalls)
	}
	const declineKey = `michican_ff_decline_total{node="bus",reason="capture_denied",tier="hyper"}`
	if denied.counters[declineKey] == 0 {
		t.Errorf("capture-denied hyper arm counted no %s", declineKey)
	}
	delete(denied.counters, declineKey)
	if !reflect.DeepEqual(denied.counters, splice.counters) {
		t.Errorf("hub counters diverge from the splice-ff arm:\n%v\nvs\n%v", denied.counters, splice.counters)
	}
	if got, want := busTiers(denied.bb), busTiers(splice.bb); got != want {
		t.Errorf("bus tier bits (idle, frame, contend, splice, hyper) = %v, splice-ff arm %v", got, want)
	}
	if splice.bb.SpliceForwardedBits() == 0 {
		t.Error("splice fast path never engaged — the differential is vacuous")
	}
	compareHyperOutcome(t, "exact vs capture-denied hyper-ff", exact.out, denied.out)
	compareHyperOutcome(t, "splice-ff vs capture-denied hyper-ff", splice.out, denied.out)

	hub := telemetry.NewHub()
	hub.AllowCapture(true)
	allowed := runHyperHubScenario(t, diffHyperFF, hub)
	if allowed.fpCalls == 0 {
		t.Error("capture-allowed hyper arm never fingerprinted an anchor")
	}
	if allowed.bb.HyperMemoCount() == 0 || allowed.bb.HyperForwardedBits() == 0 {
		t.Errorf("capture-allowed hyper arm: %d memos, %d hyper bits — want both > 0",
			allowed.bb.HyperMemoCount(), allowed.bb.HyperForwardedBits())
	}
	if _, ok := allowed.counters[declineKey]; ok {
		t.Errorf("capture-allowed hyper arm exported %s", declineKey)
	}
	compareHyperOutcome(t, "exact vs capture-allowed hyper-ff", exact.out, allowed.out)
}
