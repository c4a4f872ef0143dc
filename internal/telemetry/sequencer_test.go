package telemetry

import (
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"
)

// sortSequencer is the sort-on-drain Sequencer the insertion-ordered one
// replaced, kept as the differential reference: it appends every arrival,
// tracks whether the buffer is still in canonical order, and sorts before
// a drain when it is not.
type sortSequencer struct {
	Slack int64
	Emit  func(Event)

	buf    []seqEntry
	next   int64
	maxT   int64
	sorted bool
}

func (s *sortSequencer) Add(ev Event) {
	e := seqEntry{ev: ev, seq: s.next}
	s.next++
	if n := len(s.buf); n == 0 {
		s.sorted = true
	} else if s.sorted && seqLess(e, s.buf[n-1]) {
		s.sorted = false
	}
	s.buf = append(s.buf, e)
	if ev.Time > s.maxT {
		s.maxT = ev.Time
	}
	if len(s.buf) >= sequencerDrainLen {
		slack := s.Slack
		if slack == 0 {
			slack = DefaultSequencerSlack
		}
		s.drain(s.maxT - slack)
	}
}

func (s *sortSequencer) Flush() {
	s.drain(s.maxT + 1)
	s.buf = s.buf[:0]
	s.sorted = true
}

func (s *sortSequencer) drain(cutoff int64) {
	if !s.sorted {
		slices.SortFunc(s.buf, func(a, b seqEntry) int {
			if seqLess(a, b) {
				return -1
			}
			return 1
		})
		s.sorted = true
	}
	i := sort.Search(len(s.buf), func(i int) bool { return s.buf[i].ev.Time >= cutoff })
	for _, e := range s.buf[:i] {
		s.Emit(e.ev)
	}
	n := copy(s.buf, s.buf[i:])
	s.buf = s.buf[:n]
}

// seqOp is one step of a generated stream: an arrival, or a Flush.
type seqOp struct {
	ev    Event
	flush bool
}

// spanStream generates about n arrivals the way batch fast-path delivery
// produces them. Simulated time advances in spans of up to maxSpan bits;
// each span hands every node its events one node at a time, in a random
// node order, so arrivals are ordered per node but displaced across nodes
// by up to a span. A node's events inside a span may share a bit time, and
// nodes collide on bit times, giving same-(Time, Node) and cross-node ties.
// With probability 1/stragglerEvery per span an arrival older than slack is
// injected, and with probability 1/flushEvery per span a Flush is; zero
// disables either. Every event carries a unique A, so two released
// sequences are equal only if every tie broke the same way.
func spanStream(r *rand.Rand, n, nodes int, maxSpan, slack int64, stragglerEvery, flushEvery int) []seqOp {
	ops := make([]seqOp, 0, n+n/8)
	var t, a int64
	times := make([]int64, 0, 8)
	for events := 0; events < n; {
		span := 1 + r.Int63n(maxSpan)
		for _, node := range r.Perm(nodes) {
			times = times[:0]
			for k := r.Intn(5); k > 0; k-- {
				times = append(times, t+r.Int63n(span))
			}
			slices.Sort(times)
			for _, tm := range times {
				a++
				ops = append(ops, seqOp{ev: Event{Time: tm, Kind: EvTxStart, Node: NodeID(node), A: a}})
				events++
			}
		}
		t += span
		if stragglerEvery > 0 && r.Intn(stragglerEvery) == 0 {
			if old := t - slack - 1 - r.Int63n(slack+1); old >= 0 {
				a++
				ops = append(ops, seqOp{ev: Event{Time: old, Kind: EvError, Node: NodeID(r.Intn(nodes)), A: a}})
				events++
			}
		}
		if flushEvery > 0 && r.Intn(flushEvery) == 0 {
			ops = append(ops, seqOp{flush: true})
		}
	}
	return ops
}

// sequencerLike is the surface both sequencers share.
type sequencerLike interface {
	Add(Event)
	Flush()
}

// replay feeds ops through s and flushes at the end.
func replay(s sequencerLike, ops []seqOp) {
	for _, op := range ops {
		if op.flush {
			s.Flush()
		} else {
			s.Add(op.ev)
		}
	}
	s.Flush()
}

// checkSequencerDifferential runs one generated stream through both
// sequencers and fails on the first difference in what they release.
func checkSequencerDifferential(t *testing.T, seed, slack int64, flushEvery int) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	nodes := 2 + r.Intn(5)
	maxSpan := 1 + r.Int63n(200)
	effSlack := slack
	if effSlack == 0 {
		effSlack = DefaultSequencerSlack
	}
	ops := spanStream(r, 3*sequencerDrainLen+r.Intn(4*sequencerDrainLen), nodes, maxSpan, effSlack, 40, flushEvery)
	arrivals := 0
	for _, op := range ops {
		if !op.flush {
			arrivals++
		}
	}

	var got, want []Event
	s := &Sequencer{Slack: slack, Emit: func(ev Event) { got = append(got, ev) }}
	ref := &sortSequencer{Slack: slack, Emit: func(ev Event) { want = append(want, ev) }}
	replay(s, ops)
	replay(ref, ops)

	if len(want) != arrivals {
		t.Fatalf("seed %d: reference released %d of %d arrivals", seed, len(want), arrivals)
	}
	if len(got) != len(want) {
		t.Fatalf("seed %d: released %d events, reference %d", seed, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("seed %d (slack %d, %d nodes, span ≤%d): event %d = %+v, reference %+v",
				seed, slack, nodes, maxSpan, i, got[i], want[i])
		}
	}
}

// TestSequencerMatchesSortReference is the seeded property test: on
// span-delivered streams with cross-node displacement, ties, stragglers
// older than Slack, and mid-stream Flushes, the insertion-ordered Sequencer
// releases exactly what the sort-on-drain reference does.
func TestSequencerMatchesSortReference(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		slacks := []int64{0, 1, 4 + r.Int63n(60), 100 + r.Int63n(400)}
		checkSequencerDifferential(t, seed, slacks[seed%int64(len(slacks))], []int{0, 5, 50}[seed%3])
	}
}

// FuzzSequencerDifferential explores the same property over arbitrary
// seeds, slacks and flush rates.
func FuzzSequencerDifferential(f *testing.F) {
	f.Add(int64(1), uint16(0), uint8(0))
	f.Add(int64(2), uint16(1), uint8(3))
	f.Add(int64(3), uint16(16), uint8(40))
	f.Add(int64(4), uint16(300), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, slack uint16, flushEvery uint8) {
		checkSequencerDifferential(t, seed, int64(slack), int(flushEvery))
	})
}

// BenchmarkSequencerSpanDelivery feeds a span-delivered stream (four nodes,
// spans up to 160 bits, default Slack) through the insertion-ordered
// Sequencer and the sort-on-drain reference, reporting ns/event and
// allocs/event.
func BenchmarkSequencerSpanDelivery(b *testing.B) {
	ops := spanStream(rand.New(rand.NewSource(1)), 1<<16, 4, 160, DefaultSequencerSlack, 0, 0)
	for _, arm := range []struct {
		name string
		mk   func() sequencerLike
	}{
		{"insert", func() sequencerLike { return &Sequencer{Emit: func(Event) {}} }},
		{"sort-reference", func() sequencerLike { return &sortSequencer{Emit: func(Event) {}} }},
	} {
		b.Run(arm.name, func(b *testing.B) {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			mallocs := ms.Mallocs
			start := time.Now()
			for i := 0; i < b.N; i++ {
				replay(arm.mk(), ops)
			}
			elapsed := time.Since(start)
			runtime.ReadMemStats(&ms)
			events := float64(b.N) * float64(len(ops))
			b.ReportMetric(float64(elapsed.Nanoseconds())/events, "ns/event")
			b.ReportMetric(float64(ms.Mallocs-mallocs)/events, "allocs/event")
		})
	}
}
