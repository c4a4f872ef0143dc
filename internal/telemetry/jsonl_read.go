package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// NamedEvent is a decoded JSONL record: an Event with the node name resolved,
// since a reader has no Hub to map IDs through.
type NamedEvent struct {
	Time int64
	Node string
	Kind Kind
	A, B int64
}

// kindByName is the inverse of Kind.String for the JSONL reader.
var kindByName = func() map[string]Kind {
	m := make(map[string]Kind)
	for k := EvArbWon; k <= EvAlert; k++ {
		m[k.String()] = k
	}
	return m
}()

// errorKindCode is the inverse of ErrorKindName.
func errorKindCode(name string) int64 {
	for i, n := range errorKindNames {
		if i > 0 && n == name {
			return int64(i)
		}
	}
	var code int64
	fmt.Sscanf(name, "kind%d", &code)
	return code
}

// ffPathCode is the inverse of ffPathName.
func ffPathCode(name string) int64 {
	switch name {
	case "frame":
		return 1
	case "contend":
		return 2
	case "splice":
		return 3
	case "hyper":
		return 4
	default:
		return 0
	}
}

// jsonlRecord is the union of every kind-specific field AppendEventJSON emits.
type jsonlRecord struct {
	T         int64  `json:"t"`
	Node      string `json:"node"`
	Event     string `json:"event"`
	ID        string `json:"id"`
	AtWireBit int64  `json:"at_wire_bit"`
	Bit       int64  `json:"bit"`
	Bits      int64  `json:"bits"`
	Kind      string `json:"kind"`
	Role      string `json:"role"`
	Value     int64  `json:"value"`
	Prev      int64  `json:"prev"`
	Path      string `json:"path"`
	Rule      int64  `json:"rule"`
	State     string `json:"state"`
}

// ParseEventJSON decodes one JSONL record previously produced by
// AppendEventJSON (one line, without or with surrounding whitespace) back
// into a named event. Exported so the durable store's replay path decodes
// segment payloads through the same inverse WriteJSONL readers use.
func ParseEventJSON(line []byte) (NamedEvent, error) {
	var rec jsonlRecord
	if err := json.Unmarshal(line, &rec); err != nil {
		return NamedEvent{}, err
	}
	kind, ok := kindByName[rec.Event]
	if !ok {
		return NamedEvent{}, fmt.Errorf("unknown event %q", rec.Event)
	}
	ev := NamedEvent{Time: rec.T, Node: rec.Node, Kind: kind}
	switch kind {
	case EvArbWon, EvTxStart, EvTxSuccess:
		id, err := strconv.ParseInt(strings.TrimPrefix(rec.ID, "0x"), 16, 64)
		if err != nil {
			return NamedEvent{}, fmt.Errorf("bad id %q", rec.ID)
		}
		ev.A = id
	case EvArbLost:
		ev.A = rec.AtWireBit
	case EvDetect:
		ev.A = rec.Bit
	case EvPullStart, EvPullEnd:
		ev.A = rec.Bits
	case EvError:
		ev.A = errorKindCode(rec.Kind)
		if rec.Role == "tx" {
			ev.B = 1
		}
	case EvTEC, EvREC:
		ev.A, ev.B = rec.Value, rec.Prev
	case EvFFSpan:
		ev.A = rec.Bits
		ev.B = ffPathCode(rec.Path)
	case EvAlert:
		ev.A = rec.Rule
		if rec.State == "fire" {
			ev.B = 1
		}
	}
	return ev, nil
}

// ReadJSONL parses a stream previously produced by WriteJSONL or a
// JSONLStreamer back into named events, preserving stream order.
func ReadJSONL(r io.Reader) ([]NamedEvent, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var out []NamedEvent
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		ev, err := ParseEventJSON([]byte(text))
		if err != nil {
			return nil, fmt.Errorf("events line %d: %w", line, err)
		}
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
