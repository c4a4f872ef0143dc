package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"syscall"
	"time"

	"michican/internal/controller"
	"michican/internal/experiment"
	"michican/internal/fleet"
	"michican/internal/forensics"
	"michican/internal/obs"
	"michican/internal/watch"
)

const (
	// sliceBits is the quantum a single vehicle advances per call, the
	// fleet's default SliceBits, so both step alike.
	sliceBits = 65536
	// checkpointBits is the durable store's automatic checkpoint interval,
	// the michican-sim and michican-fleet default.
	checkpointBits = 1 << 20
	// warmBits is the simulated warm-up a single vehicle runs inside
	// set-up, after its plans are compiled and before the timed window
	// opens; fleetWarmBits is each fleet vehicle's share.
	warmBits      = 1 << 20
	fleetWarmBits = 1 << 18
	// setupReps is how many times set-up runs; setup_s is their median.
	setupReps = 5
	// memProbeBits is how far past its warm-up the memory probe runs a
	// single vehicle before peak_rss_mb is read, in memSegBits segments.
	memProbeBits = 1 << 23
	memSegBits   = 1 << 20
	// fleetRSSBits is how much the timed fleet simulates past its warm-up
	// before peak_rss_mb is read: by then every first-generation vehicle
	// has retired and been replaced.
	fleetRSSBits = fleetSize * vehicleLifeBits
	// chunk is the sampling interval inside a timed window. Rates are the
	// median over chunks, which keeps a stall on a shared host from moving
	// the figure.
	chunk = 250 * time.Millisecond
)

// sample is one chunk of a timed window.
type sample struct {
	bits int64
	wall time.Duration
	cpu  time.Duration
}

// window summarizes a timed window by its chunk medians.
type window struct {
	samples []sample
}

func (w *window) add(bits int64, wall, cpu time.Duration) {
	if bits > 0 && wall > 0 {
		w.samples = append(w.samples, sample{bits, wall, cpu})
	}
}

func (w window) bits() (n int64) {
	for _, s := range w.samples {
		n += s.bits
	}
	return n
}

// mbitPerS is the median chunk rate in simulated Mbit per wall-second.
func (w window) mbitPerS() float64 {
	return median(w.samples, func(s sample) float64 { return float64(s.bits) / 1e6 / s.wall.Seconds() })
}

// msPerMbit is the median chunk wall time per simulated Mbit.
func (w window) msPerMbit() float64 {
	return median(w.samples, func(s sample) float64 { return float64(s.wall.Microseconds()) / 1e3 / (float64(s.bits) / 1e6) })
}

// cpuMsPerMbit is the median chunk process CPU time per simulated Mbit.
func (w window) cpuMsPerMbit() float64 {
	return median(w.samples, func(s sample) float64 { return float64(s.cpu.Microseconds()) / 1e3 / (float64(s.bits) / 1e6) })
}

func median[T any](xs []T, f func(T) float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	v := make([]float64, len(xs))
	for i, x := range xs {
		v[i] = f(x)
	}
	sort.Float64s(v)
	if n := len(v); n%2 == 1 {
		return v[n/2]
	} else {
		return (v[n/2-1] + v[n/2]) / 2
	}
}

// cpuTime is the process's user+system time over all threads.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size so far. Runs read it at
// a fixed point of simulated time: the stack's memory keeps growing with
// simulated time, so a reading after a wall-clock window would grow with
// throughput.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// timeSteps runs step until d of wall time has passed, sampling every chunk.
func timeSteps(d time.Duration, now func() int64, step func()) window {
	var w window
	start := time.Now()
	cs, cb, cc := start, now(), cpuTime()
	for {
		step()
		t := time.Now()
		if t.Sub(cs) >= chunk {
			c := cpuTime()
			w.add(now()-cb, t.Sub(cs), c-cc)
			cs, cb, cc = t, now(), c
		}
		if t.Sub(start) >= d {
			return w
		}
	}
}

// sloTally scores the watch verdicts of a run: the engaged incidents, and
// those that violated the detection-window, eradication or leak SLO.
// Incidents still in progress at the recording edge are not scored, as the
// watch engine itself does not score them. A violation is the stack's
// verdict on the simulated defence, which the correctness gate checks
// against exact stepping; it is reported as slo_violation_share, not as a
// failed operation of the benchmark.
type sloTally struct{ engaged, violated int64 }

func (t *sloTally) add(vs []watch.IncidentVerdict) {
	for _, v := range vs {
		if !v.Engaged || v.InProgress {
			continue
		}
		t.engaged++
		if !v.DetectionOK || !v.EradicationOK || !v.LeakFree {
			t.violated++
		}
	}
}

// paperBusOffMs is Table II Exp 1's mean bus-off time for the 0x173 spoofer.
const paperBusOffMs = 24.6

// busOffMs is the mean span of the spoofer's complete, eradicated
// incidents: the same first-SOF-to-bus-off episode Table II times.
func busOffMs(incs []forensics.Incident, end int64) (float64, int) {
	var sum float64
	var n int
	for _, inc := range forensics.Complete(incs, end) {
		if inc.ID == experiment.DefenderID && inc.Eradicated {
			sum += float64(inc.Bits())
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	bitMs := float64(time.Second/time.Millisecond) / float64(50_000)
	return sum / float64(n) * bitMs, n
}

// singleRun is the untraced benchmarked configuration of one vehicle:
// experiment.StartDurableVehicle (hub, forensics, watch and a durable
// store) on the full ladder.
type singleRun struct {
	setup   []float64
	mem     memProbe
	win     window
	slo     sloTally
	busOff  float64
	busOffN int
}

// ops counts the run's operations and failures.
type ops struct {
	attempted, failed int64
	failures          []string
}

func (o *ops) check(ok bool, what string) {
	o.attempted++
	if !ok {
		o.failed++
		o.failures = append(o.failures, what)
	}
}

func (o *ops) add(p ops) {
	o.attempted += p.attempted
	o.failed += p.failed
	o.failures = append(o.failures, p.failures...)
}

// startSingle builds, plan-warms and warms up one durable vehicle.
func startSingle(dir string, spec experiment.FleetVehicleSpec) (*experiment.DurableVehicle, error) {
	dv, err := experiment.StartDurableVehicle(dir, spec, 0, "", storeOpts())
	if err != nil {
		return nil, err
	}
	dv.WarmPlans()
	dv.Advance(warmBits)
	return dv, nil
}

// memProbe is the memory reading of a single-vehicle run.
type memProbe struct {
	rssMB float64
	// heapMB is the live heap after a full collection at the end of
	// warm-up and memProbeBits later.
	heapMB [2]float64
	// segMs is the wall time of each memSegBits segment of the probe.
	segMs []float64
}

// heapGrowth is the live heap's growth per simulated Mbit over the probe.
func (m memProbe) heapGrowth() float64 {
	return (m.heapMB[1] - m.heapMB[0]) / (memProbeBits / 1e6)
}

// segMsPerMbit is the wall cost per Mbit of the probe's i-th segment.
func (m memProbe) segMsPerMbit(i int) float64 { return m.segMs[i] / (memSegBits / 1e6) }

func liveHeapMB() float64 {
	runtime.GC()
	return float64(memStats().HeapAlloc) / (1 << 20)
}

// probeMemory sets up one vehicle like the timed ones and runs it
// memProbeBits past its warm-up, outside any timed window, then reads the
// process's peak RSS. It runs first in the process, so the reading covers
// the binary, the runtime, one set-up and memProbeBits of simulation at a
// point that does not depend on the host's speed. It also records how the
// live heap and the wall cost per Mbit grow over the probe.
func probeMemory(dir string, spec experiment.FleetVehicleSpec) (memProbe, error) {
	var m memProbe
	dv, err := startSingle(dir, spec)
	if err != nil {
		return m, err
	}
	m.heapMB[0] = liveHeapMB()
	for seg := 0; seg < memProbeBits/memSegBits; seg++ {
		t0 := time.Now()
		for b := 0; b < memSegBits; b += sliceBits {
			dv.Advance(sliceBits)
		}
		m.segMs = append(m.segMs, float64(time.Since(t0).Microseconds())/1e3)
	}
	m.rssMB = peakRSSMB()
	m.heapMB[1] = liveHeapMB()
	if err := dv.FinalizeDurable(dv.Finalize()); err != nil {
		return m, err
	}
	if err := dv.Store.Close(); err != nil {
		return m, err
	}
	return m, os.RemoveAll(dir)
}

// runSingle runs the memory probe and then reps fresh vehicles one after
// another, each set up and then timed for d/reps. The stack keeps every
// incident, verdict and received frame, so its live heap grows with
// simulated time; short lives keep every timed chunk on the same stretch of
// that growth whatever the host's speed, and spread set-ups over the run.
func runSingle(tmp string, spec experiment.FleetVehicleSpec, reps int, d time.Duration, hp *hostProbe) (singleRun, error) {
	var r singleRun
	var sum float64
	var err error
	if r.mem, err = probeMemory(filepath.Join(tmp, "probe"), spec); err != nil {
		return r, err
	}
	for i := 0; i < reps; i++ {
		hp.slot()
		t0 := time.Now()
		dv, err := startSingle(filepath.Join(tmp, fmt.Sprintf("run%d", i)), spec)
		if err != nil {
			return r, err
		}
		r.setup = append(r.setup, time.Since(t0).Seconds())
		w := timeSteps(d/time.Duration(reps), dv.Now, func() { dv.Advance(sliceBits) })
		r.win.samples = append(r.win.samples, w.samples...)
		incs := dv.Finalize()
		if err := dv.FinalizeDurable(incs); err != nil {
			return r, fmt.Errorf("finalize store: %w", err)
		}
		if err := dv.Store.Close(); err != nil {
			return r, err
		}
		r.slo.add(dv.Watch().Verdicts())
		ms, n := busOffMs(incs, dv.Now())
		sum += ms * float64(n)
		r.busOffN += n
		if err := os.RemoveAll(tmp); err != nil {
			return r, err
		}
	}
	hp.slot()
	if r.busOffN > 0 {
		r.busOff = sum / float64(r.busOffN)
	}
	return r, nil
}

// fleetRig is one running fleet-mix deployment: the fleet on one worker,
// the shared plan cache, a watch collector and the HTTP control plane, as
// michican-fleet wires them, with every retiring vehicle replaced by the
// next draw of its class.
type fleetRig struct {
	f         *fleet.Fleet
	plans     *controller.PlanSource
	collector *watch.FleetCollector
	server    *obs.Server
	draws     *fleetDraws
	mk        vehicleMaker
	// onFinal, when set, sees each vehicle as it finalizes.
	onFinal  func(fleet.Vehicle)
	draining atomic.Bool

	// The fields below belong to the fleet's one worker once it has
	// started (OnFinalize and OnRetire run there); the run reads them
	// after the fleet has stopped.
	joins   int // backfills still allowed; negative means no limit
	class   map[int]fleetClass
	watches map[int]*watch.Engine
	handed  fleet.IncidentTotals
	retired int64
	slo     sloTally
	err     error
}

// vehicleMaker builds one fleet vehicle and returns its watch engine.
type vehicleMaker func(experiment.FleetVehicleSpec) (fleet.Vehicle, *watch.Engine, error)

// newFleetRig builds the fleet-mix population of seed from mk, plan-warmed
// and joined, binds the server, starts the fleet and runs it until it has
// simulated warm bits per vehicle. joins caps the backfills (negative: no
// cap). The first generation retires at staggered horizons so departures
// spread out from the start.
func newFleetRig(seed int64, joins int, warm int64, mk vehicleMaker, onFinal func(fleet.Vehicle)) (*fleetRig, error) {
	rig := &fleetRig{plans: controller.NewPlanSource(), collector: watch.NewFleetCollector(nil),
		draws: &fleetDraws{seed: seed}, mk: mk, onFinal: onFinal, joins: joins,
		class: make(map[int]fleetClass), watches: make(map[int]*watch.Engine)}
	rig.f = fleet.New(fleet.Config{Workers: 1, OnFinalize: rig.finalized, OnRetire: rig.backfill})
	specs, err := rig.draws.population()
	if err != nil {
		return nil, err
	}
	for i, spec := range specs {
		spec.HorizonBits = (vehicleLifeBits*int64(i+1)/fleetSize + sliceBits - 1) / sliceBits * sliceBits
		if err := rig.join(spec); err != nil {
			return nil, err
		}
	}
	rig.server, err = obs.ServeFleet("127.0.0.1:0", rig.f,
		obs.WithFleetMetrics(func(w io.Writer) {
			st := rig.plans.Stats()
			fmt.Fprintf(w, "michican_fleet_plan_cache_hits_total %d\n", st.Hits)
			fmt.Fprintf(w, "michican_fleet_plan_cache_misses_total %d\n", st.Misses)
			fmt.Fprintf(w, "michican_fleet_plan_cache_plans %d\n", st.Plans)
			fmt.Fprintf(w, "michican_fleet_plan_cache_resident_bytes %d\n", st.ResidentBytes)
		}),
		obs.WithFleetAlerts(func() watch.FleetAlertView { return rig.collector.Snapshot(time.Now()) }))
	if err != nil {
		return nil, err
	}
	rig.f.Start()
	for rig.simBits() < warm*fleetSize {
		time.Sleep(time.Millisecond)
	}
	return rig, nil
}

func (r *fleetRig) join(spec experiment.FleetVehicleSpec) error {
	spec.Plans = r.plans
	v, w, err := r.mk(spec)
	if err != nil {
		return err
	}
	r.class[spec.Index] = fleetClass{spec.Attack, spec.Load}
	r.watches[spec.Index] = w
	r.collector.Register(spec.Index, w)
	return r.f.Add(v)
}

// finalized is the fleet's OnFinalize hook: it scores the vehicle's watch
// verdicts and folds its incident log the way the aggregate's hand-off
// does, for handoffOK to compare.
func (r *fleetRig) finalized(v fleet.Vehicle, incs []forensics.Incident) {
	w := r.watches[v.ID()]
	delete(r.watches, v.ID())
	r.slo.add(w.Verdicts())
	r.retired++
	for _, inc := range incs {
		r.handed.Incidents++
		r.handed.Attempts += int64(inc.Attempts)
		r.handed.Detections += int64(inc.Detections)
		r.handed.Counterattacks += int64(inc.Counterattacks)
		r.handed.FramesLeaked += int64(inc.FramesLeaked)
		if inc.Eradicated {
			r.handed.Eradicated++
		}
	}
	if r.onFinal != nil {
		r.onFinal(v)
	}
}

// backfill is the fleet's OnRetire hook: it replaces a vehicle that reached
// its horizon with the next draw of the same class.
func (r *fleetRig) backfill(res fleet.VehicleResult) {
	r.collector.Unregister(res.ID)
	if res.Removed || r.draining.Load() || r.joins == 0 || r.err != nil {
		return
	}
	r.joins--
	c := r.class[res.ID]
	delete(r.class, res.ID)
	spec, err := r.draws.draw(func(k fleetClass) bool { return k == c })
	if err == nil {
		spec.HorizonBits = vehicleLifeBits
		err = r.join(spec)
	}
	r.err = err
}

// simBits is the fleet's total simulated time, from the shards' mirrors
// (retired vehicles included).
func (r *fleetRig) simBits() int64 {
	var n int64
	for _, vi := range r.f.Vehicles() {
		n += vi.NowBits
	}
	return n
}

// drain stops backfilling, retires every vehicle (incident hand-off
// included) and stops the fleet and the server.
func (r *fleetRig) drain() {
	r.draining.Store(true)
	for _, vi := range r.f.Vehicles() {
		r.f.Remove(vi.ID)
	}
	r.f.Wait()
	r.f.Stop()
	_ = r.server.Close()
}

func (r *fleetRig) abandon() {
	r.draining.Store(true)
	r.f.Stop()
	_ = r.server.Close()
}

// result checks the stopped fleet: the aggregate's handed-off incident
// totals must equal the sum of the retired vehicles' own logs, and every
// vehicle that joined must have retired through the hand-off.
func (r *fleetRig) result() ops {
	var o ops
	if r.err != nil {
		o.check(false, "fleet backfill: "+r.err.Error())
	}
	got := r.f.Aggregate().IncidentsView().Totals
	joined := r.f.Health().Joined
	o.check(got == r.handed && r.retired == joined,
		fmt.Sprintf("fleet hand-off: aggregate %+v vs vehicle logs %+v, %d of %d vehicles retired", got, r.handed, r.retired, joined))
	return o
}

// fleetVehicle is the untraced fleet-mix vehicle: experiment.NewFleetVehicle.
func fleetVehicle(spec experiment.FleetVehicleSpec) (fleet.Vehicle, *watch.Engine, error) {
	v, err := experiment.NewFleetVehicle(spec)
	if err != nil {
		return nil, nil, err
	}
	v.WarmPlans()
	return v, v.Watch(), nil
}

type fleetRun struct {
	setup  []float64
	rssMB  float64
	win    window
	scrape scrapeStats
	ops    ops
	slo    sloTally
}

// runFleet sets up the fleet-mix deployment and times it for d under the
// open-loop scraper, then sets it up reps-1 more times for the set-up
// median. The timed fleet is the process's first, so peak_rss_mb, read once
// it has simulated fleetRSSBits past its warm-up, is that fleet's.
func runFleet(seed int64, reps int, d time.Duration, rate float64, hp *hostProbe) (fleetRun, error) {
	var r fleetRun
	hp.slot()
	t0 := time.Now()
	rig, err := newFleetRig(seed, -1, fleetWarmBits, fleetVehicle, nil)
	if err != nil {
		return r, err
	}
	r.setup = append(r.setup, time.Since(t0).Seconds())
	warm := rig.simBits()
	sc := startScraper(rig.server.URL(), rate, nil)
	start := time.Now()
	cs, cb, cc := start, warm, cpuTime()
	for time.Since(start) < d {
		time.Sleep(chunk)
		t, b, c := time.Now(), rig.simBits(), cpuTime()
		r.win.add(b-cb, t.Sub(cs), c-cc)
		cs, cb, cc = t, b, c
		if r.rssMB == 0 && b-warm >= fleetRSSBits {
			r.rssMB = peakRSSMB()
		}
	}
	r.scrape = sc.stop()
	// A host too slow to reach the reading point inside the window runs on
	// to it, unscraped, so the reading stays at one simulated point.
	for r.rssMB == 0 {
		time.Sleep(chunk)
		if rig.simBits()-warm >= fleetRSSBits {
			r.rssMB = peakRSSMB()
		}
	}
	rig.drain()
	hp.slot()
	r.ops, r.slo = rig.result(), rig.slo
	r.ops.attempted += r.scrape.attempted
	r.ops.failed += r.scrape.failed
	if r.scrape.failed > 0 {
		r.ops.failures = append(r.ops.failures, fmt.Sprintf("%d of %d scrapes failed", r.scrape.failed, r.scrape.attempted))
	}
	for i := 1; i < reps; i++ {
		t0 := time.Now()
		rig, err := newFleetRig(seed, -1, fleetWarmBits, fleetVehicle, nil)
		if err != nil {
			return r, err
		}
		r.setup = append(r.setup, time.Since(t0).Seconds())
		rig.abandon()
		hp.slot()
	}
	return r, nil
}
