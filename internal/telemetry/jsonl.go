package telemetry

import (
	"bufio"
	"io"
	"sort"
	"strconv"
)

// sortedEvents snapshots the event log in global bit-time order. Each node's
// own emissions are monotone in time, but batch (fast-path) delivery appends
// whole per-node spans one node at a time, so the raw log can interleave
// across nodes; a stable sort restores global order while preserving every
// node's begin/end pairing order.
// The secondary key is the node ID so that ties at the same bit time land in
// a canonical order regardless of stepping mode: per-node streams are
// identical across exact and batch delivery, and the stable sort keeps each
// node's same-time emissions in program order.
func (h *Hub) sortedEvents() []Event {
	events := h.Events()
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].Time != events[j].Time {
			return events[i].Time < events[j].Time
		}
		return events[i].Node < events[j].Node
	})
	return events
}

// WriteJSONL streams the retained event log as one JSON object per line, in
// bit-time order. Kind-specific arguments are decoded into named fields so
// the stream is self-describing:
//
//	{"t":1042,"node":"michican","event":"detect","bit":5}
//	{"t":1056,"node":"michican","event":"pull_start","bits":7}
//	{"t":1063,"node":"attacker","event":"error","kind":"bit","role":"tx"}
//	{"t":1079,"node":"attacker","event":"tec","value":8,"prev":0}
func (h *Hub) WriteJSONL(w io.Writer) error {
	if h == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	var buf []byte
	for _, ev := range h.sortedEvents() {
		buf = AppendEventJSON(buf[:0], h.NodeName(ev.Node), ev)
		buf = append(buf, '\n')
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// writeEventJSON renders one event plus its newline. Kept as the internal
// convenience the streaming exporters use; AppendEventJSON is the canonical
// encoder.
func writeEventJSON(w *bufio.Writer, node string, ev Event) error {
	buf := AppendEventJSON(make([]byte, 0, 96), node, ev)
	buf = append(buf, '\n')
	_, err := w.Write(buf)
	return err
}

// ffPathName names an EvFFSpan B-argument path code as it appears in the
// JSONL stream.
func ffPathName(code int64) string {
	switch code {
	case 1:
		return "frame"
	case 2:
		return "contend"
	case 3:
		return "splice"
	case 4:
		return "hyper"
	default:
		return "idle"
	}
}

// AppendEventJSON appends one event's JSONL record (without the trailing
// newline) to dst and returns the grown slice. The encoding is hand-rolled
// rather than encoding/json: the field set depends on the kind, and the
// stable field order keeps the stream diffable across runs. Exported so the
// durable store can frame the exact bytes WriteJSONL would produce, and so
// the two stay one encoder.
func AppendEventJSON(dst []byte, node string, ev Event) []byte {
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
