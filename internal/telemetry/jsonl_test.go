package telemetry

import (
	"bytes"
	"strconv"
	"testing"
)

// quoteEventJSON is the strconv-quoting encoder AppendEventJSON replaced,
// kept as the differential reference: every name goes through
// strconv.AppendQuote and hex IDs through strconv.FormatInt.
func quoteEventJSON(dst []byte, node string, ev Event) []byte {
	dst = append(dst, `{"t":`...)
	dst = strconv.AppendInt(dst, ev.Time, 10)
	dst = append(dst, `,"node":`...)
	dst = strconv.AppendQuote(dst, node)
	dst = append(dst, `,"event":`...)
	dst = strconv.AppendQuote(dst, ev.Kind.String())
	appendHexID := func(dst []byte, id int64) []byte {
		dst = append(dst, `,"id":"0x`...)
		hex := strconv.FormatInt(id, 16)
		for i := len(hex); i < 3; i++ {
			dst = append(dst, '0')
		}
		for _, c := range hex {
			if c >= 'a' && c <= 'f' {
				c -= 'a' - 'A'
			}
			dst = append(dst, byte(c))
		}
		return append(dst, '"')
	}
	switch ev.Kind {
	case EvArbWon, EvTxStart, EvTxSuccess:
		dst = appendHexID(dst, ev.A)
	case EvArbLost:
		dst = append(dst, `,"at_wire_bit":`...)
		dst = strconv.AppendInt(dst, ev.A, 10)
	case EvDetect:
		dst = append(dst, `,"bit":`...)
		dst = strconv.AppendInt(dst, ev.A, 10)
	case EvPullStart, EvPullEnd:
		dst = append(dst, `,"bits":`...)
		dst = strconv.AppendInt(dst, ev.A, 10)
	case EvError:
		dst = append(dst, `,"kind":`...)
		dst = strconv.AppendQuote(dst, ErrorKindName(ev.A))
		dst = append(dst, `,"role":`...)
		if ev.B != 0 {
			dst = append(dst, `"tx"`...)
		} else {
			dst = append(dst, `"rx"`...)
		}
	case EvTEC, EvREC:
		dst = append(dst, `,"value":`...)
		dst = strconv.AppendInt(dst, ev.A, 10)
		dst = append(dst, `,"prev":`...)
		dst = strconv.AppendInt(dst, ev.B, 10)
	case EvFFSpan:
		dst = append(dst, `,"bits":`...)
		dst = strconv.AppendInt(dst, ev.A, 10)
		dst = append(dst, `,"path":`...)
		dst = strconv.AppendQuote(dst, ffPathName(ev.B))
	case EvAlert:
		dst = append(dst, `,"rule":`...)
		dst = strconv.AppendInt(dst, ev.A, 10)
		dst = append(dst, `,"state":`...)
		if ev.B != 0 {
			dst = append(dst, `"fire"`...)
		} else {
			dst = append(dst, `"resolve"`...)
		}
	case EvErrorEnd, EvBusOff, EvRecover:
		// No arguments.
	}
	return append(dst, '}')
}

// FuzzAppendEventJSON checks that AppendEventJSON writes the same bytes as
// the strconv-quoting reference for any event and node name, appending onto
// a non-empty prefix so the result must extend dst rather than replace it.
func FuzzAppendEventJSON(f *testing.F) {
	for k := EvArbWon; k <= EvAlert+1; k++ {
		f.Add(int64(1042), uint8(k), "michican", int64(0x173), int64(1))
	}
	for _, id := range []int64{0, 0xFFF, 0x1FFFFFFF, -1, -0xA, -0x1FFFFFFF} {
		for _, k := range []Kind{EvArbWon, EvTxStart, EvTxSuccess} {
			f.Add(int64(7), uint8(k), "attacker", id, int64(0))
		}
	}
	for _, node := range []string{
		"", `say "hi"`, `back\slash`, "tab\there", "nul\x00", "del\x7f",
		"bell\a", "ünïcödé", "ecu-\u2603", "bad\xffutf8", "\xc3", "\U0001F697",
	} {
		f.Add(int64(-5), uint8(EvDetect), node, int64(5), int64(0))
	}
	for _, code := range []int64{0, 1, 5, 6, -3, 1 << 40} {
		f.Add(int64(99), uint8(EvError), "defender", code, int64(1))
	}
	for _, path := range []int64{0, 1, 2, 3, 4, 5, -1} {
		f.Add(int64(1<<40), uint8(EvFFSpan), "bus", int64(4096), path)
	}
	f.Fuzz(func(t *testing.T, tm int64, kind uint8, node string, a, b int64) {
		ev := Event{Time: tm, Kind: Kind(kind), A: a, B: b}
		prefix := []byte("prefix|")
		got := AppendEventJSON(append([]byte(nil), prefix...), node, ev)
		want := quoteEventJSON(append([]byte(nil), prefix...), node, ev)
		if !bytes.Equal(got, want) {
			t.Fatalf("node %q event %+v:\n got %s\nwant %s", node, ev, got, want)
		}
	})
}
