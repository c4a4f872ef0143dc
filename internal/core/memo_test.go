package core

import (
	"reflect"
	"testing"

	"michican/internal/bus"
	"michican/internal/can"
	"michican/internal/controller"
)

// memoFrames decodes fuzz bytes into up to four classical base frames:
// two bytes of ID (11 bits), a DLC byte, then that many payload bytes.
func memoFrames(raw []byte) []can.Frame {
	var out []can.Frame
	for len(raw) >= 3 && len(out) < 4 {
		id := can.ID(uint16(raw[0])<<8|uint16(raw[1])) & can.MaxID
		n := min(int(raw[2]%9), len(raw)-3)
		out = append(out, can.Frame{ID: id, Data: append([]byte{}, raw[3:3+n]...)})
		raw = raw[3+n:]
	}
	return out
}

// FuzzSpanMemo checks both span memos against their unmemoised paths on
// committed spans cut from fuzzed frames. Each frame's wire bits are copied
// into several arrays, so the memos see many span identities and grow:
//
//   - a receiving controller fed a span from the post-SOF baseline through
//     ObserveRun (the memo path, missed on first sight and hit on every
//     later one) and then the rest of the frame bit by bit must drive the
//     same levels and end with the same statistics and counters as a twin
//     fed every bit through Observe;
//   - the defense's memoised passiveScan must return what the unmemoised
//     scan of its entry state returns, from the SOF and join baselines and
//     the idle hunt, for every prefix length (the memo reuses a stop it
//     recorded for a shorter span over the same bits);
//   - whenever a memo grows, every entry it held stays hittable.
func FuzzSpanMemo(f *testing.F) {
	f.Add([]byte{0x01, 0x73, 2, 0x11, 0x22, 0x00, 0x64, 8, 1, 2, 3, 4, 5, 6, 7, 8}, uint8(3))
	f.Add([]byte{0x00, 0x50, 0, 0x07, 0xFF, 1, 0xFF, 0x02, 0xA0, 4, 0, 0, 0, 0}, uint8(1))
	f.Add([]byte{0x03, 0xE8, 5, 0xAA, 0x55, 0xAA, 0x55, 0xAA}, uint8(6))
	f.Fuzz(func(t *testing.T, raw []byte, copies uint8) {
		frames := memoFrames(raw)
		if len(frames) == 0 {
			return
		}
		copies = 1 + copies%4
		var spans [][]can.Level
		for _, fr := range frames {
			wire := can.WireBits(&fr, can.Dominant)
			for i := 0; i < int(copies); i++ {
				spans = append(spans, append([]can.Level(nil), wire...))
			}
		}
		checkRxMemo(t, spans)
		checkScanMemo(t, spans)
	})
}

// checkRxMemo runs every span cut (SOF+1 through the CRC delimiter) twice
// through a memoised receiver and a per-bit twin.
func checkRxMemo(t *testing.T, spans [][]can.Level) {
	var got, want []can.Frame
	memo := controller.New(controller.Config{Name: "memo",
		OnReceive: func(_ bus.BitTime, f can.Frame) { got = append(got, f) }})
	exact := controller.New(controller.Config{Name: "exact",
		OnReceive: func(_ bus.BitTime, f can.Frame) { want = append(want, f) }})
	var now bus.BitTime
	both := func(level can.Level) {
		memo.Observe(now, level)
		exact.Observe(now, level)
		now++
		if memo.Drive(now) != exact.Drive(now) {
			t.Fatalf("bit %d: memoised receiver drives %v, per-bit twin %v", now, memo.Drive(now), exact.Drive(now))
		}
	}
	identities := 0
	for pass := 0; pass < 2; pass++ {
		for _, wire := range spans {
			// The ACK slot and what follows are driven, not committed.
			for cut := 2; cut <= len(wire)-9; cut++ {
				for i := 0; i < can.IdleForSOF; i++ {
					both(can.Recessive)
				}
				both(wire[0])
				memo.ObserveRun(now, wire[1:cut])
				for _, level := range wire[1:cut] {
					exact.Observe(now, level)
					now++
				}
				for _, level := range wire[cut:] {
					both(level)
				}
				identities++
			}
		}
	}
	if !reflect.DeepEqual(memo.Stats(), exact.Stats()) || memo.REC() != exact.REC() || memo.TEC() != exact.TEC() {
		t.Fatalf("memoised receiver stats %+v rec %d, per-bit twin %+v rec %d",
			memo.Stats(), memo.REC(), exact.Stats(), exact.REC())
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("memoised receiver got %d frames, per-bit twin %d", len(got), len(want))
	}
	rx, _ := memo.MemoFootprint()
	if rx.Slots > max(256, 4*rx.Live) || identities >= 2*512 && rx.Slots <= 256 {
		t.Fatalf("receive memo: %d slots for %d live entries after %d span identities", rx.Slots, rx.Live, identities/2)
	}
}

// checkScanMemo compares memoised scans of every prefix of every span,
// from three entry states, with the scan the memo runs on a miss, and
// checks hittability across growths.
func checkScanMemo(t *testing.T, spans [][]can.Level) {
	d := buildDefense(t, []can.ID{0x050, 0x064, 0x173, 0x2A0, 0x3E8}, 2, Config{Name: "michican"})
	type key struct {
		p    *can.Level
		mode uint32
	}
	keys := make(map[key]bool)
	scan := func(frameBit int, levels []can.Level, self bool, mode uint8) {
		var want int
		switch mode {
		case scanModeSOF, scanModeSOFSelf:
			want = d.frameScan(levels, self)
		case scanModeJoin, scanModeJoinSelf:
			want = d.joinScan(levels, self)
		default:
			want = idleScanLevels(levels, d.cntSOF)
		}
		before := d.scanCache.Footprint()
		if got := d.passiveScan(frameBit, levels, self); got != want {
			t.Fatalf("mode %d self %v, %d-bit span: memoised scan accepts %d bits, unmemoised %d",
				mode, self, len(levels), got, want)
		}
		keys[key{&levels[0], uint32(mode)}] = true
		after := d.scanCache.Footprint()
		if after.Slots != before.Slots {
			if after.Live < before.Live {
				t.Fatalf("growth to %d slots dropped entries: %d live, was %d", after.Slots, after.Live, before.Live)
			}
			hits := 0
			for k := range keys {
				if d.scanCache.Get(k.p, k.mode) != nil {
					hits++
				}
			}
			if hits != after.Live {
				t.Fatalf("after growth to %d slots, %d of %d live entries hittable", after.Slots, hits, after.Live)
			}
		}
	}
	for i := 0; i < can.IdleForSOF; i++ {
		d.Observe(bus.BitTime(i), can.Recessive)
	}
	for _, self := range []bool{false, true} {
		mode := uint8(scanModeJoin)
		if self {
			mode = scanModeJoinSelf
		}
		for _, wire := range spans {
			for n := 1; n <= len(wire); n++ {
				scan(0, wire[:n], self, mode)
			}
		}
	}
	for run := 0; run <= can.IdleForSOF; run++ {
		d.cntSOF = run
		for _, wire := range spans {
			for n := 1; n < len(wire); n++ {
				scan(n, wire[n:], false, uint8(run))
			}
		}
	}
	d.cntSOF = can.IdleForSOF
	d.Observe(can.IdleForSOF, can.Dominant)
	for _, self := range []bool{false, true} {
		mode := uint8(scanModeSOF)
		if self {
			mode = scanModeSOFSelf
		}
		for _, wire := range spans {
			for n := 2; n <= len(wire); n++ {
				scan(1, wire[1:n], self, mode)
			}
		}
	}
	if fp := d.scanCache.Footprint(); fp.Slots > max(256, 4*fp.Live) || len(keys) >= 512 && fp.Slots <= 256 {
		t.Fatalf("scan memo: %d slots for %d live entries after %d span identities", fp.Slots, fp.Live, len(keys))
	}
}
