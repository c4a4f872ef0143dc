package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"michican/internal/bus"
	"michican/internal/can"
	"michican/internal/experiment"
	"michican/internal/restbus"
	"michican/internal/trace"
)

const (
	// benignLoad and duelLoad are the offered restbus loads: the 60% grid
	// cell the headline throughput has always been quoted at, and Table II's
	// ~20% restbus load.
	benignLoad = 0.60
	duelLoad   = 0.20
	// fleetSize is the fleet-mix vehicle count. Vehicles retire after
	// vehicleLifeBits of simulated time and a fresh draw of the same class
	// takes each one's place, so the fleet runs in a steady state: its
	// memory does not grow with the length of the run.
	fleetSize       = 20
	vehicleLifeBits = 1 << 21
)

// fleetClass is one (attacker mix, restbus load) pairing of the fleet.
type fleetClass struct {
	attack experiment.FleetAttack
	load   float64
}

// fleetQuota is FleetSpecAt's mix — attack 55% none, 20% spoof, 15% DoS,
// 10% toggle; load 20% at 2%, 50% at 30%, 30% at 60% — as whole vehicle
// counts over fleetSize, with attack and load as close to independent as
// whole counts allow. Holding the population fixed leaves a seed to vary
// which draws fill it (their schedule phases and join order), so fleets
// from different seeds cost about the same to simulate.
var fleetQuota = map[fleetClass]int{
	{experiment.FleetAttackNone, 0.02}: 2, {experiment.FleetAttackNone, 0.30}: 6, {experiment.FleetAttackNone, 0.60}: 3,
	{experiment.FleetAttackSpoof, 0.02}: 1, {experiment.FleetAttackSpoof, 0.30}: 2, {experiment.FleetAttackSpoof, 0.60}: 1,
	{experiment.FleetAttackDoS, 0.02}: 1, {experiment.FleetAttackDoS, 0.30}: 1, {experiment.FleetAttackDoS, 0.60}: 1,
	{experiment.FleetAttackToggle, 0.30}: 1, {experiment.FleetAttackToggle, 0.60}: 1,
}

// ladder is the stepping mode of every benchmarked vehicle: the full
// six-rung ladder, hyperperiod super-splicing included. FleetSpecAt (and so
// michican-fleet) defaults to splice-ff, which switches the hyper rung off
// whatever the hub allows; the benchmark enables it so that the rung shows
// the moment a vehicle's hub opts in to capture.
const ladder = experiment.ModeHyperFF

// workloadSpecs generates a workload's vehicle specs from the seed. Every
// vehicle runs the full ladder with a watch engine attached.
func workloadSpecs(wl string, seed int64) ([]experiment.FleetVehicleSpec, error) {
	vehSeed := experiment.DeriveSeed(seed, 0) ^ 0x5DEECE66D
	switch wl {
	case wlBenign:
		return []experiment.FleetVehicleSpec{{Seed: vehSeed, Load: benignLoad,
			Mode: ladder, Attack: experiment.FleetAttackNone, Watch: true}}, nil
	case wlDuel:
		return []experiment.FleetVehicleSpec{{Seed: vehSeed, Load: duelLoad,
			Mode: ladder, Attack: experiment.FleetAttackSpoof, Watch: true}}, nil
	case wlFleet:
		return (&fleetDraws{seed: seed}).population()
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", wl, workloadNames)
}

// fleetDraws hands out FleetSpecAt vehicles of one seed in draw order.
type fleetDraws struct {
	seed int64
	j    int // next FleetSpecAt index
	ids  int // next vehicle id
}

// draw returns the next FleetSpecAt vehicle whose class passes keep, set to
// the benchmark's ladder.
func (d *fleetDraws) draw(keep func(fleetClass) bool) (experiment.FleetVehicleSpec, error) {
	for tries := 0; tries < 1_000_000; tries++ {
		s := experiment.FleetSpecAt(d.seed, d.j, 0, false)
		d.j++
		if keep(fleetClass{s.Attack, s.Load}) {
			s.Index, s.Watch, s.Mode = d.ids, true, ladder
			d.ids++
			return s, nil
		}
	}
	return experiment.FleetVehicleSpec{}, fmt.Errorf("fleet-mix: seed %d drew no vehicle of the wanted class", d.seed)
}

// population draws the fleet's initial vehicles: fleetQuota of each class.
func (d *fleetDraws) population() ([]experiment.FleetVehicleSpec, error) {
	left := make(map[fleetClass]int, len(fleetQuota))
	for c, n := range fleetQuota {
		left[c] = n
	}
	var specs []experiment.FleetVehicleSpec
	for len(specs) < fleetSize {
		s, err := d.draw(func(c fleetClass) bool { return left[c] > 0 })
		if err != nil {
			return nil, err
		}
		left[fleetClass{s.Attack, s.Load}]--
		specs = append(specs, s)
	}
	return specs, nil
}

// attackIDs lists the CAN IDs an attacker mix injects, as
// experiment.NewFleetVehicle excludes them from the benign matrix.
func attackIDs(a experiment.FleetAttack) []can.ID {
	switch a {
	case experiment.FleetAttackSpoof:
		return []can.ID{experiment.DefenderID}
	case experiment.FleetAttackDoS:
		return []can.ID{0x064}
	case experiment.FleetAttackToggle:
		return []can.ID{0x050, 0x051}
	}
	return nil
}

// vehicleMatrix rebuilds the restbus matrix experiment.NewFleetVehicle
// replays for a spec: Veh-D bus 0 without the defender's and attackers' IDs,
// its 10 ms period base stretched to the spec's load so the schedule stays
// harmonic. The correctness gate proves the rebuild by comparing the
// composed stack's incident log with NewFleetVehicle's.
func vehicleMatrix(spec experiment.FleetVehicleSpec) *restbus.Matrix {
	if spec.Load <= 0 {
		return nil
	}
	bad := map[can.ID]bool{experiment.DefenderID: true}
	for _, id := range attackIDs(spec.Attack) {
		bad[id] = true
	}
	src := restbus.Buses(restbus.VehD)[0]
	m := &restbus.Matrix{Vehicle: src.Vehicle, Bus: src.Bus}
	for _, msg := range src.Messages {
		if !bad[msg.ID] {
			m.Messages = append(m.Messages, msg)
		}
	}
	load := m.Load(bus.Rate50k)
	if load <= spec.Load {
		return m
	}
	const periodBase = 10 * time.Millisecond
	stretch := int64(math.Round(load / spec.Load * float64(bus.Rate50k.Bits(periodBase))))
	if stretch < 1 {
		stretch = 1
	}
	for i, msg := range m.Messages {
		k := int64((msg.Period + periodBase/2) / periodBase)
		if k < 1 {
			k = 1
		}
		m.Messages[i].Period = time.Duration(k*stretch) * bus.Rate50k.BitDuration()
	}
	return m
}

// fingerprint names exactly what a result measured. compare refuses to put
// two results side by side unless their fingerprints are equal.
type fingerprint struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Vehicles int    `json:"vehicles"`
	// MatrixHash is a SHA-256 over every vehicle's (ID, period, DLC) rows.
	MatrixHash string `json:"matrix_hash"`
	// Harmonic reports that every restbus schedule has a usable
	// hyperperiod; HyperperiodBits lists the distinct hyperperiods.
	Harmonic        bool    `json:"harmonic"`
	HyperperiodBits []int64 `json:"hyperperiod_bits"`
	// Attackers lists the distinct attacker mixes ("none" included).
	Attackers []string `json:"attackers"`
	// OfferedLoad is the wire busy share measured on a recorded prefix of
	// every vehicle (mean over vehicles).
	OfferedLoad float64 `json:"offered_load"`
	Ladder      string  `json:"ladder"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	NProc       int     `json:"nproc"`
}

// loadPrefixBits is the recorded prefix the offered load is measured on.
const loadPrefixBits = 1 << 19

func workloadFingerprint(wl string, seed int64, specs []experiment.FleetVehicleSpec) (fingerprint, error) {
	fp := fingerprint{Workload: wl, Seed: seed, Vehicles: len(specs), Harmonic: true,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU()}
	h := sha256.New()
	hypers := map[int64]bool{}
	attackers := map[string]bool{}
	ladders := map[string]bool{}
	var load float64
	for _, spec := range specs {
		attackers[string(spec.Attack)] = true
		ladders[string(spec.Mode)] = true
		if m := vehicleMatrix(spec); m != nil {
			for _, msg := range m.Messages {
				fmt.Fprintf(h, "%d/%d/%d;", msg.ID, bus.Rate50k.Bits(msg.Period), msg.DLC)
			}
			hp := m.HyperperiodBits(bus.Rate50k)
			hypers[hp] = true
			fp.Harmonic = fp.Harmonic && hp > 0
		}
		h.Write([]byte{'|'})
		rec := spec
		rec.Record, rec.Watch, rec.Plans = true, false, nil
		v, err := experiment.NewFleetVehicle(rec)
		if err != nil {
			return fp, err
		}
		v.Advance(loadPrefixBits)
		r := v.Recorder()
		load += trace.Load(trace.Decode(r.Bits(), r.Start()), int64(r.Len()))
	}
	fp.MatrixHash = hex.EncodeToString(h.Sum(nil))
	for hp := range hypers {
		fp.HyperperiodBits = append(fp.HyperperiodBits, hp)
	}
	sort.Slice(fp.HyperperiodBits, func(i, j int) bool { return fp.HyperperiodBits[i] < fp.HyperperiodBits[j] })
	fp.Attackers = sortedKeys(attackers)
	fp.Ladder = fmt.Sprint(sortedKeys(ladders))
	fp.OfferedLoad = load / float64(len(specs))
	return fp, nil
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
