package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"path/filepath"
	"reflect"
	"sort"

	"michican/internal/experiment"
	"michican/internal/forensics"
	"michican/internal/watch"
)

// gatePrefixBits is the prefix of each single-vehicle workload the
// correctness gate replays under exact stepping.
const gatePrefixBits = 1 << 21

// outcome is what a run of a vehicle produced, canonicalised for
// comparison.
type outcome struct {
	incs     []forensics.Incident
	verdicts []watch.IncidentVerdict
	alerts   []watch.Alert
}

func outcomeOf(incs []forensics.Incident, w *watch.Engine) outcome {
	return outcome{incs: incs, verdicts: canonVerdicts(w.Verdicts()), alerts: canonAlerts(w.Alerts())}
}

// canonVerdicts sorts verdicts into the forensics record's (Start, ID)
// order: live verdicts arrive in closure order, which differs between
// ladder rungs.
func canonVerdicts(v []watch.IncidentVerdict) []watch.IncidentVerdict {
	out := append([]watch.IncidentVerdict(nil), v...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].IDHex < out[j].IDHex
	})
	return out
}

// canonAlerts puts alerts in bit-time order and drops the emission
// sequence: closure-driven and event-driven rules interleave differently
// when a rung batches its event deliveries, while the content is the same.
func canonAlerts(v []watch.Alert) []watch.Alert {
	out := append([]watch.Alert(nil), v...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Time != out[j].Time {
			return out[i].Time < out[j].Time
		}
		if out[i].RuleID != out[j].RuleID {
			return out[i].RuleID < out[j].RuleID
		}
		return out[i].Reason < out[j].Reason
	})
	for i := range out {
		out[i].Seq = 0
	}
	return out
}

// incidentDigest is a SHA-256 over the canonical incident encoding.
func incidentDigest(incs []forensics.Incident) (string, error) {
	payloads, err := forensics.EncodeIncidents(incs)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	for _, p := range payloads {
		h.Write(p)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// exactOutcome runs spec under exact stepping through
// experiment.NewFleetVehicle: the oracle.
func exactOutcome(spec experiment.FleetVehicleSpec, bits int64) (outcome, error) {
	spec.Mode = experiment.ModeExact
	v, err := experiment.NewFleetVehicle(spec)
	if err != nil {
		return outcome{}, err
	}
	v.Advance(bits)
	return outcomeOf(v.Finalize(), v.Watch()), nil
}

// benchmarkedOutcome runs spec in the benchmarked configuration.
func benchmarkedOutcome(dir string, spec experiment.FleetVehicleSpec, bits int64) (outcome, error) {
	dv, err := experiment.StartDurableVehicle(dir, spec, 0, "", storeOpts())
	if err != nil {
		return outcome{}, err
	}
	dv.WarmPlans()
	dv.Advance(bits)
	incs := dv.Finalize()
	if err := dv.FinalizeDurable(incs); err != nil {
		return outcome{}, err
	}
	if err := dv.Store.Close(); err != nil {
		return outcome{}, err
	}
	return outcomeOf(incs, dv.Watch()), nil
}

// composedIncidents runs spec on the traced stack the benchmark composes,
// store included when withStore is set, and returns its incident log.
func composedIncidents(dir string, spec experiment.FleetVehicleSpec, bits int64, withStore bool) ([]forensics.Incident, error) {
	a := armWatch
	if withStore {
		a = armStore
	}
	tr := newTracer()
	s, err := newStack(spec, a, dir, tr)
	if err != nil {
		return nil, err
	}
	s.WarmPlans()
	v := timedVehicle{Vehicle: s, tr: tr}
	v.Advance(bits)
	incs := v.Finalize()
	return incs, s.finalizeStore()
}

// runGate runs the correctness gate for a workload, outside any timed
// window. Each compared log entry and each digest is one operation.
func runGate(tmp, wl string, specs []experiment.FleetVehicleSpec) (ops, error) {
	var o ops
	if wl == wlFleet {
		// The fleet's first attacked vehicle exercises the most layers.
		spec := specs[0]
		for _, s := range specs {
			if s.Attack != experiment.FleetAttackNone {
				spec = s
				break
			}
		}
		return o, composedMatches(&o, tmp, spec, false)
	}
	spec := specs[0]
	exact, err := exactOutcome(spec, gatePrefixBits)
	if err != nil {
		return o, err
	}
	bench, err := benchmarkedOutcome(filepath.Join(tmp, "gate-bench"), spec, gatePrefixBits)
	if err != nil {
		return o, err
	}
	checkEach(&o, "incident log", exact.incs, bench.incs)
	checkEach(&o, "watch verdicts", exact.verdicts, bench.verdicts)
	checkEach(&o, "alert log", exact.alerts, bench.alerts)
	return o, composedMatches(&o, tmp, spec, true)
}

// checkEach compares a log with exact stepping's item by item, one
// operation per item of the longer log (one for two empty logs); an item
// missing from either side fails.
func checkEach[T any](o *ops, what string, want, got []T) {
	bad, n := 0, max(len(want), len(got), 1)
	for i := 0; i < n; i++ {
		o.attempted++
		if i < len(want) && i < len(got) && !reflect.DeepEqual(want[i], got[i]) || (i < len(want)) != (i < len(got)) {
			o.failed++
			bad++
		}
	}
	if bad > 0 {
		o.failures = append(o.failures, fmt.Sprintf("%s: %d of %d entries differ from exact stepping (%d vs %d entries)", what, bad, n, len(got), len(want)))
	}
}

// composedMatches checks that the stack the traced run composes
// reproduces experiment.NewFleetVehicle's incident digest for one spec.
func composedMatches(o *ops, tmp string, spec experiment.FleetVehicleSpec, withStore bool) error {
	v, err := experiment.NewFleetVehicle(spec)
	if err != nil {
		return err
	}
	v.WarmPlans()
	v.Advance(gatePrefixBits)
	want, err := incidentDigest(v.Finalize())
	if err != nil {
		return err
	}
	incs, err := composedIncidents(filepath.Join(tmp, "gate-composed"), spec, gatePrefixBits, withStore)
	if err != nil {
		return err
	}
	got, err := incidentDigest(incs)
	if err != nil {
		return err
	}
	o.check(got == want, fmt.Sprintf("composed stack incident digest %.12s differs from NewFleetVehicle's %.12s", got, want))
	return nil
}
