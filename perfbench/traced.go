package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"michican/internal/controller"
	"michican/internal/experiment"
	"michican/internal/fleet"
	"michican/internal/store"
	"michican/internal/telemetry"
	"michican/internal/watch"
)

// tracedMbitPerSecond sizes each workload's traced pass: the pass simulates
// a fixed number of bits, --seconds times this rate, so its deterministic
// counts repeat exactly for a seed. The rates are about half each
// workload's traced speed on a 2-CPU x86-64 VM, so the pass lasts about
// half of --seconds there.
var tracedMbitPerSecond = map[string]float64{wlBenign: 12, wlDuel: 2, wlFleet: 5}

// armResult is one rung of the layered-cost table.
type armResult struct {
	arm arm
	win window
}

// armTurnBits is one arm's turn in the interleaved arm schedule, in
// simulated bits per vehicle set: about 150-250 ms of the slowest arm
// (+store; fleet-mix: +watch) on a 2-CPU x86-64 VM.
var armTurnBits = map[string]int64{wlBenign: 64 * sliceBits, wlDuel: 16 * sliceBits, wlFleet: 32 * sliceBits}

// runArms measures the cumulative stack arms bare → +hub → +forensics →
// +watch (→ +store) untraced. Every arm's vehicles are built up front and
// the arms take turns of armTurnBits for d in total, so host noise lands on
// all arms alike and every arm stays at the same point of simulated time,
// with as much history kept as the others. The fleet's vehicles share
// one plan cache, as fleet-mix does; a single vehicle has none, as its
// benchmarked set-up has none. A store arm's turn ends with a checkpoint,
// the sink's barrier, so the writer goroutine's work is charged to the turn
// that caused it.
func runArms(tmp, wl string, specs []experiment.FleetVehicleSpec, top arm, d time.Duration) ([]armResult, error) {
	var plans *controller.PlanSource
	if wl == wlFleet {
		plans = controller.NewPlanSource()
	}
	sets := make([][]*stack, top+1)
	defer func() {
		for _, set := range sets {
			for _, s := range set {
				s.release()
			}
		}
		_ = os.RemoveAll(tmp)
	}()
	for a := armBare; a <= top; a++ {
		for i, spec := range specs {
			spec.Plans = plans
			s, err := newStack(spec, a, filepath.Join(tmp, fmt.Sprintf("arm%d-%d", a, i)), nil)
			if err != nil {
				return nil, err
			}
			s.WarmPlans()
			s.Advance(warmBits)
			sets[a] = append(sets[a], s)
		}
	}
	out := make([]armResult, top+1)
	next := make([]int, top+1)
	turn := armTurnBits[wl]
	for start := time.Now(); time.Since(start) < d; {
		for a := armBare; a <= top; a++ {
			set := sets[a]
			t0, c0 := time.Now(), cpuTime()
			for bits := int64(0); bits < turn; bits += sliceBits {
				set[next[a]].Advance(sliceBits)
				next[a] = (next[a] + 1) % len(set)
			}
			if a == armStore {
				if err := set[0].sink.Checkpoint(set[0].Now()); err != nil {
					return nil, err
				}
			}
			out[a].arm = a
			out[a].win.add(turn, time.Since(t0), cpuTime()-c0)
		}
	}
	return out, nil
}

// counterFamily sums a registry counter family over every label set whose
// key contains match.
func counterFamily(snap telemetry.CounterSnapshot, family, match string) int64 {
	var n int64
	for k, v := range snap {
		name := k
		if i := strings.IndexByte(k, '{'); i >= 0 {
			name = k[:i]
		}
		if name == family && strings.Contains(k, match) {
			n += v
		}
	}
	return n
}

// tracedPass is the outcome of a traced pass over a fixed horizon.
type tracedPass struct {
	tr       *tracer
	wall     time.Duration
	simBits  int64 // everything the hubs saw, warm-up included
	pastBits int64 // bits simulated inside the traced wall time
	counters telemetry.CounterSnapshot
	emits    int64
	incs     int
	verdicts int
	alerts   int
	mallocs  uint64
	gcs      uint32
	gcPause  time.Duration
	backlog  int64
	scrape   scrapeStats
	fleet    fleet.MetricsView
	plans    controller.PlanSourceStats
	ops      ops
}

// backlogEvery is how often the store backlog is sampled.
const backlogEvery = 10 * time.Millisecond

// sampleBacklog samples Sink.Backlog from its own goroutine, so the lock it
// takes never stalls the simulation, until the returned stop is called.
func sampleBacklog(sink *store.Sink, max *int64) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(backlogEvery)
		defer t.Stop()
		for {
			select {
			case <-quit:
				return
			case <-t.C:
				if b := sink.Backlog(); b > *max {
					*max = b
				}
			}
		}
	}()
	return func() { close(quit); <-done }
}

func memStats() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

// foldOne adds a finalized stack's counts to the pass.
func (p *tracedPass) foldOne(s *stack) {
	if p.counters == nil {
		p.counters = telemetry.CounterSnapshot{}
	}
	for k, v := range s.hub.Registry().SnapshotCounters() {
		p.counters[k] += v
	}
	p.emits += s.hub.EmitCount()
	p.simBits += s.Now()
	p.incs += len(s.incs)
	p.verdicts += len(s.w.Verdicts())
	p.alerts += len(s.w.Alerts())
}

// traceSingle runs the composed single-vehicle stack, store included,
// through the timing wrapper for horizon bits.
func traceSingle(tmp string, spec experiment.FleetVehicleSpec, horizon int64) (tracedPass, error) {
	var p tracedPass
	tr := newTracer()
	s, err := newStack(spec, armStore, filepath.Join(tmp, "traced"), tr)
	if err != nil {
		return p, err
	}
	s.WarmPlans()
	s.Advance(warmBits)
	tr.reset()
	v := timedVehicle{Vehicle: s, tr: tr}
	end := s.Now() + horizon
	ms0 := memStats()
	t0 := time.Now()
	stop := sampleBacklog(s.sink, &p.backlog)
	for s.Now() < end {
		v.Advance(sliceBits)
	}
	stop()
	sp := tr.begin(spanCheckpoint)
	err = s.sink.Checkpoint(s.Now())
	tr.end(sp)
	if err != nil {
		return p, err
	}
	v.Finalize()
	sp = tr.begin(spanStoreClose)
	err = s.finalizeStore()
	tr.end(sp)
	if err != nil {
		return p, err
	}
	p.wall = time.Since(t0)
	ms1 := memStats()
	p.tr, p.pastBits = tr, horizon
	p.mallocs, p.gcs, p.gcPause = ms1.Mallocs-ms0.Mallocs, ms1.NumGC-ms0.NumGC, time.Duration(ms1.PauseTotalNs-ms0.PauseTotalNs)
	p.foldOne(s)
	return p, os.RemoveAll(tmp)
}

// traceFleet runs the fleet-mix on composed stacks behind the timing
// wrapper while the scraper polls the control plane. Backfills stop after
// a fixed count, so the pass simulates about horizon bits, the same bits
// for a seed every time.
func traceFleet(seed int64, horizon int64) (tracedPass, error) {
	var p tracedPass
	tr := newTracer()
	byID := map[int]*stack{}
	firstGen := int64(vehicleLifeBits * (fleetSize + 1) / 2)
	joins := int((horizon - firstGen) / vehicleLifeBits)
	if joins < 0 {
		joins = 0
	}
	rig, err := newFleetRig(seed, joins, 0, func(spec experiment.FleetVehicleSpec) (fleet.Vehicle, *watch.Engine, error) {
		s, err := newStack(spec, armWatch, "", tr)
		if err != nil {
			return nil, nil, err
		}
		s.WarmPlans()
		byID[spec.Index] = s
		return timedVehicle{Vehicle: s, tr: tr}, s.w, nil
	}, func(v fleet.Vehicle) {
		s := byID[v.ID()]
		delete(byID, v.ID())
		p.foldOne(s)
	})
	if err != nil {
		return p, err
	}
	ms0 := memStats()
	t0 := time.Now()
	sc := startScraper(rig.server.URL(), scrapeRate, tr)
	rig.f.Wait()
	p.wall = time.Since(t0)
	ms1 := memStats()
	p.scrape = sc.stop()
	rig.f.Stop()
	_ = rig.server.Close()
	p.tr, p.pastBits = tr, p.simBits
	p.mallocs, p.gcs, p.gcPause = ms1.Mallocs-ms0.Mallocs, ms1.NumGC-ms0.NumGC, time.Duration(ms1.PauseTotalNs-ms0.PauseTotalNs)
	p.fleet = rig.f.Aggregate().MetricsView()
	p.plans = rig.plans.Stats()
	p.ops = rig.result()
	p.ops.attempted += p.scrape.attempted
	p.ops.failed += p.scrape.failed
	return p, nil
}

// layerRow is one line of the traced run's attribution table.
type layerRow struct {
	name string
	self time.Duration
}

// attribution splits the traced wall time into per-layer self times; the
// remainder is unattributed (the stepping loop and the tracer itself).
func (p tracedPass) attribution(wl string) []layerRow {
	tr := p.tr
	adv, fin := tr.total(spanAdvance), tr.total(spanFinalize)
	rows := []layerRow{
		{"bus.advance_self", adv - tr.feed - tr.watchCB - tr.sinkCB},
		{"forensics.feed", tr.feed},
		{"watch.hub_callbacks", tr.watchCB},
	}
	if wl == wlFleet {
		rows = append(rows, layerRow{"vehicle.finalize", fin}, layerRow{"fleet.self", p.wall - adv - fin})
	} else {
		rows = append(rows,
			layerRow{"store.hub_callbacks", tr.sinkCB},
			layerRow{"store.checkpoint", tr.total(spanCheckpoint)},
			layerRow{"vehicle.finalize", fin},
			layerRow{"store.finalize", tr.total(spanStoreClose)})
	}
	var sum time.Duration
	for _, r := range rows {
		sum += r.self
	}
	return append(rows, layerRow{"unattributed", p.wall - sum})
}

func msPerMbit(d time.Duration, bits int64) float64 {
	return float64(d.Microseconds()) / 1e3 / (float64(bits) / 1e6)
}

func perMbit(n int64, bits int64) float64 { return float64(n) / (float64(bits) / 1e6) }

// layerMetrics derives the per-layer metrics of a traced run.
func layerMetrics(wl string, p tracedPass, arms []armResult, untraced window, vals metricSet, notes map[string]string) {
	bits := p.simBits
	var ff int64
	for _, t := range tierNames[1:] {
		n := counterFamily(p.counters, "michican_ff_"+t+"_bits_total", "")
		ff += n
		vals["bus.tier_share."+t] = float64(n) / float64(bits)
	}
	vals["bus.tier_share.exact"] = float64(bits-ff) / float64(bits)
	rows := p.attribution(wl)
	vals["bus.advance_self_ms_per_mbit"] = msPerMbit(rows[0].self, p.pastBits)
	vals["bus.allocs_per_mbit"] = perMbit(int64(p.mallocs), p.pastBits)
	vals["telemetry.events_per_mbit"] = perMbit(p.emits, bits)
	vals["forensics.feed_self_ms_per_mbit"] = msPerMbit(p.tr.feed, p.pastBits)
	vals["forensics.incidents_per_mbit"] = perMbit(int64(p.incs), bits)
	vals["watch.verdicts"] = float64(p.verdicts)
	vals["watch.alert_transitions"] = float64(p.alerts)
	vals["core.detections_per_mbit"] = perMbit(counterFamily(p.counters, "michican_detections_total", ""), bits)
	vals["core.pull_bits_per_mbit"] = perMbit(counterFamily(p.counters, "michican_counterattack_bits_total", ""), bits)
	vals["attack.attempts_per_mbit"] = perMbit(counterFamily(p.counters, "michican_tx_attempts_total", `node="attacker"`), bits)
	vals["runtime.gc_cycles"] = float64(p.gcs)
	vals["runtime.gc_pause_ms"] = float64(p.gcPause.Microseconds()) / 1e3
	vals["trace.unattributed_ms_per_mbit"] = msPerMbit(rows[len(rows)-1].self, p.pastBits)
	traced := float64(p.pastBits) / 1e6 / p.wall.Seconds()
	vals["trace.overhead_share"] = 1 - traced/untraced.mbitPerS()
	notes["trace.overhead_share"] = fmt.Sprintf("traced %.4g vs untraced %.4g Mbit/s", traced, untraced.mbitPerS())

	wallOf := func(a arm) float64 { return arms[a].win.msPerMbit() }
	cpuOf := func(a arm) float64 { return arms[a].win.cpuMsPerMbit() }
	vals["telemetry.marginal_ms_per_mbit"] = wallOf(armHub) - wallOf(armBare)
	vals["watch.marginal_ms_per_mbit"] = wallOf(armWatch) - wallOf(armForensics)
	if wl == wlFleet {
		adv := p.tr.total(spanAdvance)
		vals["fleet.advance_busy_share"] = adv.Seconds() / p.wall.Seconds()
		vals["fleet.self_ms_per_mbit"] = msPerMbit(rows[len(rows)-2].self, p.pastBits)
		vals["fleet.commit_calls"] = float64(p.fleet.CommitCalls)
		vals["fleet.updates_per_commit"] = float64(p.fleet.LogicalUpdates) / float64(p.fleet.CommitCalls)
		vals["controller.plan_hits"] = float64(p.plans.Hits)
		vals["controller.plan_misses"] = float64(p.plans.Misses)
		vals["controller.plan_resident_kb"] = float64(p.plans.ResidentBytes) / 1024
		for ep, v := range p.scrape.p50ByEndpoint {
			vals["obs.scrape_p50_ms."+ep] = v
		}
		vals["obs.scrape_bytes"] = p.scrape.meanBytes
		vals["obs.gen_late_ms"] = p.scrape.genLateMs
		notes["obs.scrape_bytes"] = "mean response body"
		notes["obs.gen_late_ms"] = "latest dispatch behind its due instant"
		return
	}
	vals["store.marginal_cpu_ms_per_mbit"] = cpuOf(armStore) - cpuOf(armWatch)
	vals["store.bytes_per_mbit"] = perMbit(counterFamily(p.counters, "michican_store_bytes_appended_total", ""), bits)
	vals["store.fsyncs"] = float64(counterFamily(p.counters, "michican_store_fsyncs_total", ""))
	vals["store.backlog_max"] = float64(p.backlog)
	vals["store.finalize_ms"] = float64(p.tr.total(spanStoreClose).Microseconds()) / 1e3
	notes["store.finalize_ms"] = "incident+alert append and final checkpoint"
}
