package controller

import (
	"reflect"
	"testing"

	"michican/internal/bus"
	"michican/internal/can"
)

// TestRxSpanMemoState checks the receive span memo state for state: a
// receiver fed a committed span from the post-SOF baseline through rxRun
// (missed on first sight, hit on the second pass) must end in the same
// receive pipeline state as one fed the span through rxRunSteps. The spans
// are every cut (SOF+1 through the CRC delimiter) of 24 frames, enough span
// identities to grow the memo several times; afterwards every live entry
// must still be hittable.
func TestRxSpanMemoState(t *testing.T) {
	var wires [][]can.Level
	for _, id := range []can.ID{0x064, 0x173, 0x2A0} {
		for i := 0; i < 8; i++ {
			f := can.Frame{ID: id, Data: []byte{byte(i), 0x55, 0x00, 0xFF}[:1+i%4]}
			wires = append(wires, can.WireBits(&f, can.Dominant))
		}
	}
	memo := New(Config{Name: "memo"})
	steps := New(Config{Name: "steps"})
	var now bus.BitTime
	both := func(level can.Level) {
		memo.Observe(now, level)
		steps.Observe(now, level)
		now++
	}
	type key struct {
		p *can.Level
		n uint32
	}
	keys := make(map[key]bool)
	for pass := 0; pass < 2; pass++ {
		for _, wire := range wires {
			for cut := 2; cut <= len(wire)-9; cut++ {
				for i := 0; i < can.IdleForSOF; i++ {
					both(can.Recessive)
				}
				both(wire[0])
				span := wire[1:cut]
				memo.rxRun(now, span)
				steps.rxRunSteps(now, span)
				now += bus.BitTime(len(span))
				keys[key{&span[0], uint32(len(span))}] = true
				if memo.phase != steps.phase || !reflect.DeepEqual(memo.rxSnap(), steps.rxSnap()) {
					t.Fatalf("pass %d, %d-bit span of %d-bit frame: memoised state %+v, stepped %+v",
						pass, len(span), len(wire), *memo.rxSnap(), *steps.rxSnap())
				}
				for _, level := range wire[cut:] {
					both(level)
				}
			}
		}
	}
	rx, _ := memo.MemoFootprint()
	if rx.Slots < 4*256 || rx.Slots > 4*rx.Live {
		t.Fatalf("%d span identities left %d slots for %d live entries", len(keys), rx.Slots, rx.Live)
	}
	hits := 0
	for k := range keys {
		if memo.rxSpanCache.Get(k.p, k.n) != nil {
			hits++
		}
	}
	if hits != rx.Live {
		t.Fatalf("%d of %d live entries hittable", hits, rx.Live)
	}
}
