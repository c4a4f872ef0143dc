package bus

import (
	"testing"

	"michican/internal/can"
)

// TestSpanTableGrowth inserts distinct span identities until the table
// reaches its cap and checks that it holds at most max(256, 4 × live)
// slots after every insert, and at every growth that the live count is
// exact, that each entry the old table held is still hittable with its
// value, and that each set's most recent entry stayed in the first way.
func TestSpanTableGrowth(t *testing.T) {
	var tbl SpanTable[int]
	levels := make([]can.Level, 1<<16)
	type key struct {
		p   *can.Level
		tag uint32
	}
	var keys []key
	growths := 0
	for i := 0; len(tbl.slots) < spanTableMaxSlots || i%(1<<14) != 0; i++ {
		k := key{&levels[i%len(levels)], uint32(i / len(levels))}
		if tbl.Get(k.p, k.tag) != nil {
			t.Fatalf("insert %d: fresh identity already present", i)
		}
		var old []spanEntry[int]
		if 2*(tbl.live+1) > len(tbl.slots) {
			old = append(old, tbl.slots...) // this insert may grow the table
		}
		tbl.Put(k.p, k.tag, i)
		keys = append(keys, k)
		if len(tbl.slots) > max(spanTableMinSlots, 4*tbl.live) || len(tbl.slots) > spanTableMaxSlots {
			t.Fatalf("insert %d: %d slots for %d live entries", i, len(tbl.slots), tbl.live)
		}
		if len(old) == 0 || len(tbl.slots) == len(old) {
			continue
		}
		growths++
		checkLive(t, &tbl)
		// Replay the insert into a copy of the old table to get the entries
		// the growth had to carry over.
		pre := SpanTable[int]{slots: old}
		pre.insert(spanEntry[int]{ptr: k.p, tag: k.tag, val: i})
		mask := uint(len(tbl.slots) - 1)
		for j := 0; j < len(pre.slots); j += 2 {
			w0, w1 := pre.slots[j], pre.slots[j+1]
			for _, e := range []spanEntry[int]{w0, w1} {
				if e.ptr == nil {
					continue
				}
				set := spanIdx(e.ptr, e.tag, mask) &^ 1
				if tbl.slots[set] != e && tbl.slots[set|1] != e {
					t.Fatalf("growth to %d slots lost entry %d", len(tbl.slots), e.val)
				}
			}
			if w1.ptr != nil && spanIdx(w0.ptr, w0.tag, mask)&^1 == spanIdx(w1.ptr, w1.tag, mask)&^1 &&
				tbl.slots[spanIdx(w0.ptr, w0.tag, mask)&^1] != w0 {
				t.Fatalf("growth to %d slots demoted a most recent entry", len(tbl.slots))
			}
		}
	}
	if want := 8; growths != want {
		t.Fatalf("%d growths from %d to %d slots, want %d", growths, spanTableMinSlots, spanTableMaxSlots, want)
	}
	checkLive(t, &tbl)
	hits := 0
	for _, k := range keys {
		if tbl.Get(k.p, k.tag) != nil {
			hits++
		}
	}
	if hits != tbl.live {
		t.Fatalf("%d identities hittable, %d live", hits, tbl.live)
	}
}

// checkLive compares the table's live counter with its occupied slots.
func checkLive(t *testing.T, tbl *SpanTable[int]) {
	t.Helper()
	live := 0
	for _, e := range tbl.slots {
		if e.ptr != nil {
			live++
		}
	}
	if live != tbl.live {
		t.Fatalf("live counter %d, table holds %d", tbl.live, live)
	}
}
