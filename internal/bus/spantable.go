package bus

import (
	"unsafe"

	"michican/internal/can"
)

// SpanTable is a two-way set-associative memo keyed by a committed span's
// identity: the address of its first level plus a small tag (the span's
// length, or the entry mode of a scan). Committed spans are slices of
// immutable memoized plans, and each entry's strong pointer keeps the
// backing array alive, so the address cannot be reused for different bits
// while the entry lives. A hit is promoted to its set's first way; an
// insert demotes the first way to the second and evicts the second's entry,
// so a set is a two-entry LRU and a sticky collision pair does not
// recompute on every probe.
//
// The table holds its working set, not a worst case: it starts at
// spanTableMinSlots and doubles whenever its live entries pass half its
// slots, up to spanTableMaxSlots. A growth rehashes every live entry,
// second ways first so each set's most recent entry stays in the first
// way. The index keeps the low bits of a mask-independent hash, so the
// entries of one old set land in two new sets of their own and a rehash
// evicts nothing.
type SpanTable[V any] struct {
	slots []spanEntry[V]
	live  int
}

type spanEntry[V any] struct {
	ptr *can.Level
	tag uint32
	val V
}

const (
	// spanTableMinSlots is a fresh table's size: a vehicle's span
	// identities recur through a few hundred slots.
	spanTableMinSlots = 1 << 8
	// spanTableMaxSlots caps growth. A realistic matrix's full rotation
	// (tens of IDs × 256 rolling-counter values ≈ 8k span identities)
	// fills it to about an eighth.
	spanTableMaxSlots = 1 << 16
)

// spanIdx hashes a span identity into a table of mask+1 slots. Both
// products carry every input bit into bits 32 and up, so the index mixes
// the whole address (allocator-aligned, with constant low bits) and tag.
func spanIdx(p *can.Level, tag uint32, mask uint) uint {
	h := uint64(uintptr(unsafe.Pointer(p)))*0x9E3779B97F4A7C15 ^ uint64(tag)*0xC2B2AE3D27D4EB4F
	return uint(h>>32) & mask
}

// Get returns the value stored for the span identity, promoted to its
// set's first way, or nil if the table holds none. The pointer stays valid
// until the next Put.
func (t *SpanTable[V]) Get(p *can.Level, tag uint32) *V {
	if t.slots == nil {
		return nil
	}
	i := spanIdx(p, tag, uint(len(t.slots)-1)) &^ 1
	s := &t.slots[i]
	if s.ptr == p && s.tag == tag {
		return &s.val
	}
	if alt := &t.slots[i|1]; alt.ptr == p && alt.tag == tag {
		*s, *alt = *alt, *s
		return &s.val
	}
	return nil
}

// Put stores v for a span identity the table does not hold (Get returned
// nil), in its set's first way.
func (t *SpanTable[V]) Put(p *can.Level, tag uint32, v V) {
	if t.slots == nil {
		t.slots = make([]spanEntry[V], spanTableMinSlots)
	}
	t.insert(spanEntry[V]{ptr: p, tag: tag, val: v})
	if 2*t.live > len(t.slots) && len(t.slots) < spanTableMaxSlots {
		old := t.slots
		t.slots = make([]spanEntry[V], 2*len(old))
		t.live = 0
		for way := 1; way >= 0; way-- {
			for i := way; i < len(old); i += 2 {
				if old[i].ptr != nil {
					t.insert(old[i])
				}
			}
		}
	}
}

// insert places e in its set's first way, demoting the incumbent.
func (t *SpanTable[V]) insert(e spanEntry[V]) {
	i := spanIdx(e.ptr, e.tag, uint(len(t.slots)-1)) &^ 1
	if t.slots[i|1].ptr == nil {
		t.live++
	}
	t.slots[i|1] = t.slots[i]
	t.slots[i] = e
}

// Footprint is a memo table's size: its slots and how many hold an entry.
type Footprint struct{ Slots, Live int }

// Footprint reports the table's size.
func (t *SpanTable[V]) Footprint() Footprint { return Footprint{Slots: len(t.slots), Live: t.live} }
