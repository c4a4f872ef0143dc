package main

import (
	"encoding/json"
	"fmt"
	"io"
)

// Workload names.
const (
	wlBenign = "benign-harmonic"
	wlDuel   = "attack-duel"
	wlFleet  = "fleet-mix"
)

// workloadNames lists the workloads in the order they are documented.
var workloadNames = []string{wlBenign, wlDuel, wlFleet}

// workloadWhy is the one-line reason each workload exists.
var workloadWhy = map[string]string{
	wlBenign: "benign 60% Veh-D load, full ladder with hub+forensics+watch+store: the ladder and per-event folds do the work, no incident closes",
	wlDuel:   "Table II Exp 1 spoof duel at 20% load on the same stack: forensics, watch and store dominate, exact/contend stepping carries the fights",
	wlFleet:  "seeded fleet on one worker with watch and shared plan cache under an open-loop HTTP scraper: net commits, plan cache and scrape latency",
}

// metricDef declares one metric. A metric with no workload list applies to
// every workload; only those are declared in BENCHMARK.json, because the
// result line of every workload must carry each declared metric. The
// rest are printed in the table and the result file of the workloads they
// apply to.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen.
	Bound float64
	// E2E marks an end-to-end metric (untraced run); otherwise per-layer
	// (traced run).
	E2E bool
	// Det marks a deterministic count: it must repeat exactly for one seed.
	Det bool
	// Only restricts the metric to these workloads.
	Only []string
}

// unitOf is a metric's unit, or "" for an undeclared name.
func unitOf(name string) string {
	for _, d := range metricDefs() {
		if d.Name == name {
			return d.Unit
		}
	}
	return ""
}

func (m metricDef) appliesTo(wl string) bool {
	if len(m.Only) == 0 {
		return true
	}
	for _, w := range m.Only {
		if w == wl {
			return true
		}
	}
	return false
}

var (
	single = []string{wlBenign, wlDuel}
	fleetW = []string{wlFleet}
	// attacked are the workloads with attackers, so with engaged incidents.
	attacked = []string{wlDuel, wlFleet}
	duelW    = []string{wlDuel}
)

// tierNames are the stepping tiers, in ladder order.
var tierNames = []string{"exact", "idle", "frame", "contend", "splice", "hyper"}

func metricDefs() []metricDef {
	defs := []metricDef{
		{Name: "sim_mbit_per_s", Unit: "Mbit/s", Better: "higher", Bound: 0.25, E2E: true},
		{Name: "cpu_ms_per_mbit", Unit: "ms/Mbit", Better: "lower", Bound: 0.25, E2E: true},
		{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, E2E: true},
		{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.2, E2E: true},
		{Name: "failed_op_share", Unit: "1", Better: "lower", E2E: true, Only: workloadNames},
		{Name: "slo_violation_share", Unit: "1", Better: "lower", E2E: true, Only: attacked},
		{Name: "scrape_p50_ms", Unit: "ms", Better: "lower", E2E: true, Only: fleetW},
		{Name: "scrape_tail_ms", Unit: "ms", Better: "lower", E2E: true, Only: fleetW},
		{Name: "busoff_err_ms", Unit: "ms", Better: "lower", E2E: true, Only: duelW},
	}
	for _, t := range tierNames {
		better := "higher"
		if t == "exact" {
			better = "lower"
		}
		defs = append(defs, metricDef{Name: "bus.tier_share." + t, Unit: "1", Better: better, Det: true})
	}
	defs = append(defs, []metricDef{
		{Name: "bus.advance_self_ms_per_mbit", Unit: "ms/Mbit", Better: "lower"},
		{Name: "bus.allocs_per_mbit", Unit: "allocs/Mbit", Better: "lower"},
		{Name: "telemetry.events_per_mbit", Unit: "1/Mbit", Better: "lower", Det: true},
		{Name: "telemetry.marginal_ms_per_mbit", Unit: "ms/Mbit", Better: "lower"},
		{Name: "forensics.feed_self_ms_per_mbit", Unit: "ms/Mbit", Better: "lower"},
		{Name: "forensics.incidents_per_mbit", Unit: "1/Mbit", Better: "higher", Det: true},
		{Name: "watch.marginal_ms_per_mbit", Unit: "ms/Mbit", Better: "lower"},
		{Name: "watch.verdicts", Unit: "count", Better: "higher", Det: true},
		{Name: "watch.alert_transitions", Unit: "count", Better: "higher", Det: true},
		{Name: "store.marginal_cpu_ms_per_mbit", Unit: "ms/Mbit", Better: "lower", Only: single},
		{Name: "store.bytes_per_mbit", Unit: "B/Mbit", Better: "lower", Det: true, Only: single},
		{Name: "store.fsyncs", Unit: "count", Better: "lower", Only: single},
		{Name: "store.backlog_max", Unit: "events", Better: "lower", Only: single},
		{Name: "store.finalize_ms", Unit: "ms", Better: "lower", Only: single},
		{Name: "core.detections_per_mbit", Unit: "1/Mbit", Better: "higher", Det: true},
		{Name: "core.pull_bits_per_mbit", Unit: "bits/Mbit", Better: "higher", Det: true},
		{Name: "attack.attempts_per_mbit", Unit: "1/Mbit", Better: "higher", Det: true},
		{Name: "controller.plan_hits", Unit: "count", Better: "higher", Det: true, Only: fleetW},
		{Name: "controller.plan_misses", Unit: "count", Better: "lower", Det: true, Only: fleetW},
		{Name: "controller.plan_resident_kb", Unit: "KiB", Better: "lower", Only: fleetW},
		{Name: "fleet.advance_busy_share", Unit: "1", Better: "higher", Only: fleetW},
		{Name: "fleet.self_ms_per_mbit", Unit: "ms/Mbit", Better: "lower", Only: fleetW},
		{Name: "fleet.commit_calls", Unit: "count", Better: "lower", Det: true, Only: fleetW},
		{Name: "fleet.updates_per_commit", Unit: "1", Better: "higher", Det: true, Only: fleetW},
		{Name: "obs.scrape_p50_ms.metrics", Unit: "ms", Better: "lower", Only: fleetW},
		{Name: "obs.scrape_p50_ms.incidents", Unit: "ms", Better: "lower", Only: fleetW},
		{Name: "obs.scrape_p50_ms.alerts", Unit: "ms", Better: "lower", Only: fleetW},
		{Name: "obs.scrape_bytes", Unit: "B", Better: "lower", Only: fleetW},
		{Name: "obs.gen_late_ms", Unit: "ms", Better: "lower", Only: fleetW},
		{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
		{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},
		{Name: "trace.overhead_share", Unit: "1", Better: "lower"},
		{Name: "trace.unattributed_ms_per_mbit", Unit: "ms/Mbit", Better: "lower"},
	}...)
	return defs
}

// declaredMetric reports whether a metric goes into BENCHMARK.json and onto
// the result line: it must apply to every workload, and an end-to-end one
// must carry a bound (failed_op_share is 0 on a correct run, so it is
// reported through the result line's attempted/failed counts instead).
func declaredMetric(m metricDef) bool {
	return len(m.Only) == 0 && (!m.E2E || m.Bound > 0)
}

// Manifest is BENCHMARK.json.
type Manifest struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []manifestWorkload `json:"workloads"`
	EndToEnd   []manifestMetric   `json:"end_to_end"`
	PerLayer   []manifestMetric   `json:"per_layer"`
}

type manifestWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// defaultRunSeconds is the timed window BENCHMARK.json declares as run_seconds.
const defaultRunSeconds = 30

func buildManifest() Manifest {
	m := Manifest{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: defaultRunSeconds,
	}
	for _, w := range workloadNames {
		m.Workloads = append(m.Workloads, manifestWorkload{Name: w, Why: workloadWhy[w]})
	}
	for _, d := range metricDefs() {
		if !declaredMetric(d) {
			continue
		}
		mm := manifestMetric{Name: d.Name, Unit: d.Unit, Better: d.Better}
		if d.E2E {
			b := d.Bound
			mm.Bound = &b
			m.EndToEnd = append(m.EndToEnd, mm)
		} else {
			m.PerLayer = append(m.PerLayer, mm)
		}
	}
	return m
}

func writeManifest(w io.Writer) error {
	b, err := json.MarshalIndent(buildManifest(), "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// metricSet collects a run's values by name.
type metricSet map[string]float64

// lineMetrics picks the declared metrics of one run mode from a set.
func lineMetrics(vals metricSet, traced bool) (map[string]metricValue, error) {
	out := make(map[string]metricValue)
	for _, d := range metricDefs() {
		if !declaredMetric(d) || d.E2E == traced {
			continue
		}
		v, ok := vals[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, nil
}

// printTable prints every metric of a run that applies to the workload, by
// name and with its unit, end-to-end metrics first.
func printTable(w io.Writer, wl string, vals metricSet, notes map[string]string) {
	for _, d := range metricDefs() {
		v, ok := vals[d.Name]
		if !ok || !d.appliesTo(wl) {
			continue
		}
		kind := "layer"
		if d.E2E {
			kind = "e2e"
		}
		note := notes[d.Name]
		if d.Det {
			note = "(d) " + note
		}
		fmt.Fprintf(w, "  %-5s %-34s %14.6g %-12s %s\n", kind, d.Name, v, d.Unit, note)
	}
}
