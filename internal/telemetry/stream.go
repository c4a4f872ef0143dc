package telemetry

import (
	"bufio"
	"io"
	"sort"
	"sync"
)

// DefaultSequencerSlack is the reorder horizon used when a Sequencer is
// created with Slack 0. Batch fast-path delivery hands each node its whole
// span one node at a time, so an event can arrive displaced from global
// bit-time order by at most one span length. Spans are bounded by the
// longest classic CAN frame plus error signalling (~160 bits) — idle jumps
// carry no node events — so 4096 bits of slack is a generous safety margin.
const DefaultSequencerSlack = 4096

// sequencerDrainLen is the buffered-event count that triggers an incremental
// drain.
const sequencerDrainLen = 1024

// Sequencer restores global (Time, Node) order over a stream of events that
// arrives ordered per node but interleaved across nodes, without waiting for
// the end of the run. Events older than the newest-seen time minus Slack are
// released to Emit in canonical order: ascending Time, ties broken by Node,
// and same-(Time, Node) events kept in arrival order — the same canonical
// order WriteJSONL produces from a retained log, and identical across exact
// and fast-forward stepping because per-node streams are.
//
// Sequencer is not safe for concurrent use; callers that feed it from
// concurrent emitters must serialize Add.
//
// The buffer is kept in canonical order at all times: Add back-inserts each
// arrival, walking from the tail past the buffered events that sort after
// it. Exact-stepped simulations emit in global (Time, Node) order bit by
// bit, so the walk is empty; a fast-forward span delivered one node at a
// time lands displaced by at most the span's events, so an insertion costs
// O(displacement) — a fraction of an event on average on the benchmark
// workloads. An event older than Slack walks back past everything newer
// and is released at the next drain. A drain is then a binary search for
// the cutoff plus a copy, with no sort.
type Sequencer struct {
	// Slack is the reorder horizon in bit times (DefaultSequencerSlack when
	// zero). Events can be released as soon as they are Slack older than the
	// newest event seen.
	Slack int64
	// Emit receives released events in canonical order.
	Emit func(Event)

	buf  []seqEntry // canonical order, always
	next int64
	maxT int64
}

// seqEntry pairs a buffered event with its arrival index, the final
// tie-break of the canonical order.
type seqEntry struct {
	ev  Event
	seq int64
}

// seqLess is the canonical (Time, Node, arrival) order.
func seqLess(a, b seqEntry) bool {
	if a.ev.Time != b.ev.Time {
		return a.ev.Time < b.ev.Time
	}
	if a.ev.Node != b.ev.Node {
		return a.ev.Node < b.ev.Node
	}
	return a.seq < b.seq
}

// Add accepts one event and releases any events that have fallen behind the
// reorder horizon.
func (s *Sequencer) Add(ev Event) {
	e := seqEntry{ev: ev, seq: s.next}
	s.next++
	// e carries the newest arrival index, so it belongs after every
	// buffered event it does not strictly precede in (Time, Node).
	n := len(s.buf)
	j := n
	for j > 0 && seqLess(e, s.buf[j-1]) {
		j--
	}
	s.buf = append(s.buf, e)
	if j < n {
		copy(s.buf[j+1:], s.buf[j:n])
		s.buf[j] = e
	}
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

// Flush releases every buffered event. Call at end of run.
func (s *Sequencer) Flush() {
	s.drain(s.maxT + 1)
}

// drain emits all buffered events with Time < cutoff in canonical order and
// compacts the rest.
func (s *Sequencer) drain(cutoff int64) {
	// Canonical order is by Time first, so the releasable prefix is
	// contiguous.
	i := sort.Search(len(s.buf), func(i int) bool { return s.buf[i].ev.Time >= cutoff })
	for _, e := range s.buf[:i] {
		s.Emit(e.ev)
	}
	n := copy(s.buf, s.buf[i:])
	s.buf = s.buf[:n]
}

// JSONLStreamer writes the JSONL event stream incrementally from a hub
// subscription instead of a retained log: memory stays bounded by the
// sequencer's reorder window however long the run, which is what lets
// michican-sim export events with retention off. Create with StreamJSONL,
// then Close after the run to flush the tail.
type JSONLStreamer struct {
	mu     sync.Mutex
	bw     *bufio.Writer
	seq    Sequencer
	names  NodeNames
	line   []byte // reused encode buffer
	cancel func()
	err    error
}

// StreamJSONL subscribes to the hub and streams every event to w in
// canonical bit-time order (the same order WriteJSONL produces).
func StreamJSONL(w io.Writer, h *Hub) *JSONLStreamer {
	s := &JSONLStreamer{bw: bufio.NewWriter(w), names: NodeNames{Hub: h}}
	s.seq.Emit = s.write
	s.cancel = h.Subscribe(func(ev Event) {
		s.mu.Lock()
		s.seq.Add(ev)
		s.mu.Unlock()
	})
	return s
}

// write renders one released event. Called with s.mu held (via Sequencer.Emit
// from Add/Flush).
func (s *JSONLStreamer) write(ev Event) {
	if s.err != nil {
		return
	}
	s.line = AppendEventJSON(s.line[:0], s.names.Name(ev.Node), ev)
	s.line = append(s.line, '\n')
	_, s.err = s.bw.Write(s.line)
}

// Close unsubscribes, flushes the reorder window and the write buffer, and
// returns the first error encountered while streaming.
func (s *JSONLStreamer) Close() error {
	s.cancel()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq.Flush()
	if s.err != nil {
		return s.err
	}
	return s.bw.Flush()
}
