package store

import (
	"bytes"
	"testing"

	"michican/internal/telemetry"
)

// TestPersistPathAllocFree gates the store writer's per-event work at zero
// allocations in steady state: Store.AppendEvent framing a record, and the
// sink's sequencer → release path encoding (every kind, CAN IDs in hex),
// hashing and appending an event. Both runs are long enough to roll
// segments. A roll opens a file, which allocates a handful of objects;
// spread over the hundreds of records a segment holds, that averages to
// well under one per event, which AllocsPerRun reports as zero. Any
// per-record allocation reads as one or more.
func TestPersistPathAllocFree(t *testing.T) {
	st, err := Create(t.TempDir(), Meta{Kind: "test", SegmentBytes: 32 << 10, Fsync: FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	payload := bytes.Repeat([]byte("x"), 80)
	var now int64
	sealed := st.Stats().SegmentsSealed
	if n := testing.AllocsPerRun(4000, func() {
		now++
		if err := st.AppendEvent(payload, now); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Store.AppendEvent: %.0f allocs per event, want 0", n)
	}
	if st.Stats().SegmentsSealed == sealed {
		t.Fatal("AppendEvent run rolled no segment")
	}

	h := telemetry.NewHub()
	h.Probe("defender")
	h.Probe("attacker")
	sink := NewSink(st, h, SinkOptions{})
	defer sink.Close(now, false)
	kinds := []telemetry.Kind{telemetry.EvTxStart, telemetry.EvArbLost, telemetry.EvError,
		telemetry.EvTEC, telemetry.EvFFSpan, telemetry.EvTxSuccess}
	batch := make([]telemetry.Event, 1)
	var i int64
	sealed = st.Stats().SegmentsSealed
	if n := testing.AllocsPerRun(4000, func() {
		i++
		now += 50
		ev := telemetry.Event{Time: now, Kind: kinds[i%int64(len(kinds))],
			Node: telemetry.NodeID(i % 2), A: 0x173, B: i % 2}
		if ev.Kind == telemetry.EvError {
			ev.A = 1 + i%5 // the error kinds the controller reports
		}
		batch[0] = ev
		sink.persist(batch)
	}); n != 0 {
		t.Errorf("Sink sequencer → release: %.0f allocs per event, want 0", n)
	}
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}
	if st.Stats().SegmentsSealed == sealed {
		t.Fatal("sink run rolled no segment")
	}
}
