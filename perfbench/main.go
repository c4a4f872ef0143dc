// Command perfbench is the repository's stack benchmark. It runs the
// observability-wired MichiCAN stack (hub, forensics, watch and the durable
// store, or the fleet with its HTTP control plane) on a named workload
// generated from a seed, checks the outputs against exact stepping, and
// prints every end-to-end or per-layer metric by name with its unit. The
// last line of standard output is the result as one JSON object.
//
// From the repository root:
//
//	bash perfbench/run.sh --workload benign-harmonic --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --workload attack-duel --seed 1 --seconds 30 --trace 1
//	bash perfbench/run.sh compare A.json B.json
//	bash perfbench/run.sh manifest > BENCHMARK.json
//
// See README.md in this directory for the workloads and the metric map.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"time"

	"michican/internal/experiment"
	"michican/internal/store"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	if len(args) > 0 {
		switch args[0] {
		case "manifest":
			return writeManifest(stdout)
		case "compare":
			if len(args) != 3 {
				return errors.New("usage: compare OLD.json NEW.json")
			}
			return compare(stdout, args[1], args[2])
		}
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	fs.StringVar(&o.workload, "workload", wlBenign, fmt.Sprintf("workload: one of %v", workloadNames))
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.Float64Var(&o.seconds, "seconds", defaultRunSeconds, "length of the timed window in seconds")
	fs.IntVar(&o.trace, "trace", 0, "0: untraced end-to-end run; 1: traced per-layer run")
	fs.StringVar(&o.out, "out", filepath.Join(".bench_build", "perfbench"), "directory for result files and scratch stores")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if o.seconds <= 0 || (o.trace != 0 && o.trace != 1) {
		return errors.New("--seconds must be positive and --trace 0 or 1")
	}
	res, err := runWorkload(o, stdout)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	out      string
}

// resultFile is what a run writes next to its printed table; compare reads
// two of them.
type resultFile struct {
	Fingerprint fingerprint            `json:"fingerprint"`
	Traced      bool                   `json:"traced"`
	Seconds     float64                `json:"seconds"`
	Metrics     map[string]metricValue `json:"metrics"`
	Notes       map[string]string      `json:"notes,omitempty"`
	// HostFactor is the host reference's median pass time over its nominal
	// one; Raw holds the host-time metrics before they were scaled by it.
	HostFactor  map[string]float64 `json:"host_factor,omitempty"`
	Raw         map[string]float64 `json:"raw,omitempty"`
	RefCPUMs    []float64          `json:"ref_cpu_ms,omitempty"`
	Attempted   int64              `json:"attempted"`
	Failed      int64              `json:"failed"`
	Failures    []string           `json:"failures,omitempty"`
	Arms        []armRow           `json:"arms,omitempty"`
	Attribution map[string]float64 `json:"attribution_ms,omitempty"`
	// Samples are the timed window's chunks: simulated bits, wall and CPU
	// microseconds.
	Samples [][3]int64 `json:"samples,omitempty"`
}

type armRow struct {
	Arm          string  `json:"arm"`
	MbitPerS     float64 `json:"mbit_per_s"`
	MsPerMbit    float64 `json:"ms_per_mbit"`
	CPUMsPerMbit float64 `json:"cpu_ms_per_mbit"`
}

func storeOpts() store.SinkOptions {
	return store.SinkOptions{CheckpointIntervalBits: checkpointBits}
}

func runWorkload(o options, stdout io.Writer) (resultLine, error) {
	specs, err := workloadSpecs(o.workload, o.seed)
	if err != nil {
		return resultLine{}, err
	}
	tmp := filepath.Join(o.out, fmt.Sprintf("tmp-%d", os.Getpid()))
	defer os.RemoveAll(tmp)
	d := time.Duration(o.seconds * float64(time.Second))
	vals := metricSet{}
	notes := map[string]string{}
	rf := resultFile{Traced: o.trace == 1, Seconds: o.seconds}
	mode := "untraced end-to-end"
	if rf.Traced {
		mode = "traced per-layer"
	}
	fmt.Fprintf(stdout, "perfbench %s seed=%d seconds=%g (%s)\n", o.workload, o.seed, o.seconds, mode)
	var op ops

	if o.trace == 0 {
		op, err = untraced(tmp, o, specs, d, vals, notes, &rf)
	} else {
		op, err = traced(tmp, o, specs, vals, notes, &rf, stdout)
	}
	if err != nil {
		return resultLine{}, err
	}
	g, err := runGate(tmp, o.workload, specs)
	if err != nil {
		return resultLine{}, fmt.Errorf("correctness gate: %w", err)
	}
	op.add(g)
	fmt.Fprintf(stdout, "correctness gate: %d of %d checks passed\n", g.attempted-g.failed, g.attempted)
	if o.trace == 0 {
		vals["failed_op_share"] = float64(op.failed) / float64(op.attempted)
		notes["failed_op_share"] = fmt.Sprintf("%d of %d operations", op.failed, op.attempted)
	}
	if rf.Fingerprint, err = workloadFingerprint(o.workload, o.seed, specs); err != nil {
		return resultLine{}, err
	}

	fp, _ := json.Marshal(rf.Fingerprint)
	fmt.Fprintf(stdout, "fingerprint %s\nmetrics:\n", fp)
	printTable(stdout, o.workload, vals, notes)
	for _, f := range op.failures {
		fmt.Fprintln(stdout, "  FAILED:", f)
	}

	rf.Metrics = map[string]metricValue{}
	for k, v := range vals {
		rf.Metrics[k] = metricValue{Value: v, Unit: unitOf(k)}
	}
	rf.Notes, rf.Attempted, rf.Failed, rf.Failures = notes, op.attempted, op.failed, op.failures
	path, err := writeResult(o, rf)
	if err != nil {
		return resultLine{}, err
	}
	fmt.Fprintln(stdout, "  result file", path)

	lm, err := lineMetrics(vals, rf.Traced)
	if err != nil {
		return resultLine{}, err
	}
	return resultLine{Correct: g.failed == 0, Attempted: op.attempted, Failed: op.failed, Metrics: lm}, nil
}

func untraced(tmp string, o options, specs []experiment.FleetVehicleSpec, d time.Duration, vals metricSet, notes map[string]string, rf *resultFile) (ops, error) {
	wl := o.workload
	var win window
	var setup []float64
	var rss float64
	var op ops
	var slo sloTally
	hp := newHostProbe()
	if wl == wlFleet {
		r, err := runFleet(o.seed, setupReps, d, scrapeRate, hp)
		if err != nil {
			return op, err
		}
		win, setup, rss, op, slo = r.win, r.setup, r.rssMB, r.ops, r.slo
		notes["peak_rss_mb"] = fmt.Sprintf("once the timed fleet simulated %.4g Mbit past its warm-up", fleetRSSBits/1e6)
		vals["scrape_p50_ms"] = r.scrape.p50Ms
		vals["scrape_tail_ms"] = r.scrape.tailMs
		notes["scrape_tail_ms"] = fmt.Sprintf("p%g of %d samples at %g req/s", r.scrape.tailPct, r.scrape.tailSamples, scrapeRate)
	} else {
		r, err := runSingle(tmp, specs[0], setupReps, d, hp)
		if err != nil {
			return op, err
		}
		win, setup, rss, slo = r.win, r.setup, r.mem.rssMB, r.slo
		m := r.mem
		notes["peak_rss_mb"] = fmt.Sprintf("one vehicle %.4g Mbit past its warm-up; live heap %.1f -> %.1f MB (%+.2f MB/Mbit), wall %.4g -> %.4g ms/Mbit first to last Mbit",
			memProbeBits/1e6, m.heapMB[0], m.heapMB[1], m.heapGrowth(), m.segMsPerMbit(0), m.segMsPerMbit(len(m.segMs)-1))
		if wl == wlDuel {
			vals["busoff_err_ms"] = math.Abs(r.busOff - paperBusOffMs)
			notes["busoff_err_ms"] = fmt.Sprintf("simulated mean %.2f ms over %d episodes vs Table II %.1f ms", r.busOff, r.busOffN, paperBusOffMs)
		}
	}
	for _, s := range win.samples {
		rf.Samples = append(rf.Samples, [3]int64{s.bits, s.wall.Microseconds(), s.cpu.Microseconds()})
	}
	cpuF, wallF := hp.factors()
	rf.HostFactor = map[string]float64{"cpu": cpuF, "wall": wallF}
	rf.RefCPUMs = hp.cpu
	rf.Raw = map[string]float64{
		"sim_mbit_per_s":  win.mbitPerS(),
		"cpu_ms_per_mbit": win.cpuMsPerMbit(),
		"setup_s":         median(setup, func(x float64) float64 { return x }),
	}
	// Host time is quoted at the reference host's speed (hostref.go).
	vals["sim_mbit_per_s"] = rf.Raw["sim_mbit_per_s"] * wallF
	vals["cpu_ms_per_mbit"] = rf.Raw["cpu_ms_per_mbit"] / cpuF
	vals["setup_s"] = rf.Raw["setup_s"] / wallF
	vals["peak_rss_mb"] = rss
	if wl != wlBenign {
		vals["slo_violation_share"] = float64(slo.violated) / float64(max(slo.engaged, 1))
		notes["slo_violation_share"] = fmt.Sprintf("%d of %d engaged incidents", slo.violated, slo.engaged)
	}
	for _, k := range []string{"sim_mbit_per_s", "cpu_ms_per_mbit", "setup_s"} {
		notes[k] = fmt.Sprintf("raw %.4g %s at host factors cpu %.3f wall %.3f (median of %d reference passes)", rf.Raw[k], unitOf(k), cpuF, wallF, len(hp.cpu))
	}
	notes["sim_mbit_per_s"] += fmt.Sprintf("; median of %d chunks, %.4g Mbit simulated", len(win.samples), float64(win.bits())/1e6)
	notes["setup_s"] += fmt.Sprintf("; median of %d set-ups", len(setup))
	return op, nil
}

func traced(tmp string, o options, specs []experiment.FleetVehicleSpec, vals metricSet, notes map[string]string, rf *resultFile, stdout io.Writer) (ops, error) {
	wl, seconds := o.workload, o.seconds
	d := time.Duration(seconds * float64(time.Second))
	top := armStore
	if wl == wlFleet {
		top = armWatch
	}
	arms, err := runArms(tmp, wl, specs, top, d/2)
	if err != nil {
		return ops{}, err
	}
	horizon := int64(seconds*tracedMbitPerSecond[wl]*1e6) / sliceBits * sliceBits
	var p tracedPass
	var ref window
	if wl == wlFleet {
		if p, err = traceFleet(o.seed, horizon); err != nil {
			return ops{}, err
		}
		r, err := runFleet(o.seed, 1, d/4, scrapeRate, nil)
		if err != nil {
			return ops{}, err
		}
		ref = r.win
	} else {
		if p, err = traceSingle(tmp, specs[0], horizon); err != nil {
			return ops{}, err
		}
		r, err := runSingle(tmp, specs[0], 1, d/4, nil)
		if err != nil {
			return ops{}, err
		}
		ref = r.win
	}
	layerMetrics(wl, p, arms, ref, vals, notes)

	fmt.Fprintf(stdout, "layered cost (untraced arms interleaved in turns of %.4g Mbit over %s, %d vehicle(s)):\n", float64(armTurnBits[wl])/1e6, d/2, len(specs))
	fmt.Fprintf(stdout, "  %-11s %12s %12s %14s %16s\n", "arm", "Mbit/s", "ms/Mbit", "cpu ms/Mbit", "marginal ms/Mbit")
	for i, a := range arms {
		marg := ""
		if i > 0 {
			marg = fmt.Sprintf("%+.4g", a.win.msPerMbit()-arms[i-1].win.msPerMbit())
		}
		fmt.Fprintf(stdout, "  %-11s %12.4g %12.4g %14.4g %16s\n", armNames[a.arm], a.win.mbitPerS(), a.win.msPerMbit(), a.win.cpuMsPerMbit(), marg)
		rf.Arms = append(rf.Arms, armRow{Arm: armNames[a.arm], MbitPerS: a.win.mbitPerS(), MsPerMbit: a.win.msPerMbit(), CPUMsPerMbit: a.win.cpuMsPerMbit()})
	}
	fmt.Fprintf(stdout, "traced pass: %.4g Mbit in %s (tracing overhead %.1f%% of untraced Mbit/s)\n",
		float64(p.pastBits)/1e6, p.wall.Round(time.Millisecond), 100*vals["trace.overhead_share"])
	rf.Attribution = map[string]float64{}
	for _, r := range p.attribution(wl) {
		ms := float64(r.self.Microseconds()) / 1e3
		rf.Attribution[r.name] = ms
		fmt.Fprintf(stdout, "  %-22s %10.1f ms %6.1f%%\n", r.name, ms, 100*r.self.Seconds()/p.wall.Seconds())
	}
	return p.ops, writeSpans(o, p.tr)
}

func resultName(o options) string {
	return fmt.Sprintf("%s-seed%d-trace%d", o.workload, o.seed, o.trace)
}

func writeResult(o options, rf resultFile) (string, error) {
	dir := filepath.Join(o.out, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	b, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, resultName(o)+".json")
	return path, os.WriteFile(path, b, 0o644)
}

// writeSpans writes the traced run's coarse spans when the benchmark ends.
func writeSpans(o options, tr *tracer) error {
	dir := filepath.Join(o.out, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tr.mu.Lock()
	b, err := json.Marshal(map[string]any{"sim": tr.spans, "scrape": tr.scrapes,
		"feed_calls": tr.feeds, "feed_ns": tr.feed, "watch_cb_ns": tr.watchCB, "store_cb_ns": tr.sinkCB})
	tr.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, resultName(o)+"-spans.json"), b, 0o644)
}

// compare prints two results side by side. It refuses results whose
// workload fingerprints differ: their numbers measure different inputs.
func compare(w io.Writer, oldPath, newPath string) error {
	var a, b resultFile
	for _, x := range []struct {
		path string
		rf   *resultFile
	}{{oldPath, &a}, {newPath, &b}} {
		raw, err := os.ReadFile(x.path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(raw, x.rf); err != nil {
			return fmt.Errorf("%s: %w", x.path, err)
		}
	}
	if !reflect.DeepEqual(a.Fingerprint, b.Fingerprint) || a.Traced != b.Traced {
		fa, _ := json.Marshal(a.Fingerprint)
		fb, _ := json.Marshal(b.Fingerprint)
		return fmt.Errorf("refusing to compare: workload fingerprints differ\n  %s\n  %s", fa, fb)
	}
	names := make([]string, 0, len(a.Metrics))
	for k := range a.Metrics {
		if _, ok := b.Metrics[k]; ok {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	bounds := map[string]metricDef{}
	for _, d := range metricDefs() {
		bounds[d.Name] = d
	}
	for _, k := range names {
		va, vb := a.Metrics[k].Value, b.Metrics[k].Value
		change := ""
		if va != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(vb-va)/math.Abs(va))
		}
		flag := ""
		if d, ok := bounds[k]; ok && d.Bound > 0 {
			worse := (vb - va) / math.Abs(va)
			if d.Better == "higher" {
				worse = -worse
			}
			if worse > d.Bound {
				flag = fmt.Sprintf("  WORSE than bound %.0f%%", 100*d.Bound)
			}
		}
		fmt.Fprintf(w, "%-34s %14.6g %14.6g %9s %s%s\n", k, va, vb, change, a.Metrics[k].Unit, flag)
	}
	return nil
}
