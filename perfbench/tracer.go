package main

import (
	"sync"
	"time"

	"michican/internal/telemetry"
)

// Span names. Coarse spans (one per call the benchmark makes into a layer)
// are kept in memory; per-event spans (Feed and the watch and store hub
// callbacks) are summed, since a run emits millions of them.
const (
	spanAdvance    = "fleet.Vehicle.Advance"
	spanFinalize   = "fleet.Vehicle.Finalize"
	spanCheckpoint = "store.Sink.Checkpoint"
	spanStoreClose = "store.finalize"
	spanScrape     = "obs.scrape"
)

// span is one recorded interval, in nanoseconds since the tracer started.
// Parent is the index of the enclosing span, or -1.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// tracer records the traced run's spans. The simulation side (begin, end,
// the Feed wrapper and the hub markers) is used from one goroutine: the
// single-vehicle loop or the fleet's one worker. Scrape spans come from
// the scraper goroutines and take the mutex.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int

	// Per-event sums. feed is Feed's time; watchCB and sinkCB are the
	// time between the hub markers around the watch engine's and the store
	// sink's subscriptions.
	feed, watchCB, sinkCB time.Duration
	feeds                 int64
	mark                  time.Time

	mu      sync.Mutex
	scrapes []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// reset drops everything recorded so far and restarts the clock.
func (t *tracer) reset() {
	t.t0, t.spans, t.open = time.Now(), nil, nil
	t.feed, t.watchCB, t.sinkCB, t.feeds = 0, 0, 0, 0
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) begin(name string) int {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: t.now(), Parent: parent})
	t.open = append(t.open, len(t.spans)-1)
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	t.spans[i].End = t.now()
	t.open = t.open[:len(t.open)-1]
}

// timedFeed wraps the forensics engine's Feed.
func (t *tracer) timedFeed(feed func(telemetry.Event)) func(telemetry.Event) {
	return func(ev telemetry.Event) {
		start := time.Now()
		feed(ev)
		t.feed += time.Since(start)
		t.feeds++
	}
}

// The markers subscribe right before the watch engine, right after it, and
// right after the store sink. A hub calls subscribers in subscription
// order, so the gaps between consecutive markers are the watch and sink
// callbacks' time. Alerts are skipped: the watch engine emits them from
// inside Feed, where they would nest inside the outer event's markers.
func (t *tracer) markStart(ev telemetry.Event) {
	if ev.Kind != telemetry.EvAlert {
		t.mark = time.Now()
	}
}

func (t *tracer) markWatch(ev telemetry.Event) {
	if ev.Kind != telemetry.EvAlert {
		now := time.Now()
		t.watchCB += now.Sub(t.mark)
		t.mark = now
	}
}

func (t *tracer) markSink(ev telemetry.Event) {
	if ev.Kind != telemetry.EvAlert {
		t.sinkCB += time.Since(t.mark)
	}
}

func (t *tracer) scrape(start, end time.Time) {
	t.mu.Lock()
	t.scrapes = append(t.scrapes, span{Name: spanScrape, Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)), Parent: -1})
	t.mu.Unlock()
}

// total sums the durations of the named spans.
func (t *tracer) total(name string) time.Duration {
	var d int64
	for _, s := range t.spans {
		if s.Name == name {
			d += s.End - s.Start
		}
	}
	return time.Duration(d)
}
