package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"michican/internal/attack"
	"michican/internal/bus"
	"michican/internal/can"
	"michican/internal/controller"
	"michican/internal/core"
	"michican/internal/experiment"
	"michican/internal/fleet"
	"michican/internal/forensics"
	"michican/internal/fsm"
	"michican/internal/restbus"
	"michican/internal/store"
	"michican/internal/telemetry"
	"michican/internal/watch"
)

// arm is one rung of the cumulative stack: each arm wires every layer of
// the arms before it plus one more.
type arm int

const (
	armBare arm = iota
	armHub
	armForensics
	armWatch
	armStore
)

var armNames = [...]string{"bare", "+hub", "+forensics", "+watch", "+store"}

// stack is one vehicle composed from the packages' public constructors in
// exactly the order experiment.NewFleetVehicle and StartDurableVehicle
// compose it, except that the forensics engine is a detached forensics.New
// fed through the benchmark's own Hub.Subscribe (NewEngine's composition),
// so the traced run can time Feed. Lower arms leave the upper layers out.
type stack struct {
	spec     experiment.FleetVehicleSpec
	bb       *bus.Bus
	hub      *telemetry.Hub
	defender *controller.Controller
	rp       *restbus.Replayer
	eng      *forensics.Engine
	unsub    func()
	w        *watch.Engine
	st       *store.Store
	sink     *store.Sink
	period   bus.BitTime
	nextSend bus.BitTime
	incs     []forensics.Incident
	done     bool
}

var _ fleet.Vehicle = (*stack)(nil)

// newStack composes spec up to arm a. dir is the store directory (arm
// armStore only); tr, when non-nil, times Feed and the watch and store hub
// callbacks.
func newStack(spec experiment.FleetVehicleSpec, a arm, dir string, tr *tracer) (*stack, error) {
	if a >= armWatch && !spec.Watch {
		return nil, fmt.Errorf("vehicle %d: arm %s needs a watch spec", spec.Index, armNames[a])
	}
	s := &stack{spec: spec, bb: bus.New(bus.Rate50k),
		period: bus.BitTime(bus.Rate50k.Bits(25 * time.Millisecond))}
	s.bb.SetFastForward(spec.Mode != experiment.ModeExact)
	s.bb.SetFrameFastForward(spec.Mode != experiment.ModeExact && spec.Mode != experiment.ModeIdleFF)
	s.bb.SetContendFastForward(spec.Mode == experiment.ModeContendFF || spec.Mode == experiment.ModeSpliceFF || spec.Mode == experiment.ModeHyperFF)
	s.bb.SetSpliceFastForward(spec.Mode == experiment.ModeSpliceFF || spec.Mode == experiment.ModeHyperFF)
	s.bb.SetHyperFastForward(spec.Mode == experiment.ModeHyperFF)

	matrix := vehicleMatrix(spec)
	ids := []can.ID{experiment.DefenderID}
	if matrix != nil {
		ids = append(ids, matrix.IDs()...)
		if h := matrix.HyperperiodBits(bus.Rate50k); h > 0 {
			s.bb.SetHyperChainBits(h)
		}
	}
	ivn, err := fsm.NewIVN(ids)
	if err != nil {
		return nil, err
	}
	ds, err := fsm.NewDetectionSet(ivn, ivn.Index(experiment.DefenderID))
	if err != nil {
		return nil, err
	}
	defense, err := core.New(core.Config{Name: "michican", FSM: fsm.Build(ds)})
	if err != nil {
		return nil, err
	}
	s.defender = controller.New(controller.Config{Name: "defender", AutoRecover: true, Plans: spec.Plans})
	s.bb.Attach(core.NewECU(s.defender, defense))
	if matrix != nil {
		s.rp = restbus.NewReplayer("restbus", matrix, bus.Rate50k, rand.New(rand.NewSource(spec.Seed)))
		if spec.Plans != nil {
			s.rp.SharePlans(spec.Plans)
		}
		s.bb.Attach(s.rp)
	}
	var attackers []*attack.Attacker
	switch spec.Attack {
	case experiment.FleetAttackSpoof:
		attackers = append(attackers, attack.NewTargetedDoS("attacker", experiment.DefenderID))
	case experiment.FleetAttackDoS:
		attackers = append(attackers, attack.NewTargetedDoS("attacker", 0x064))
	case experiment.FleetAttackToggle:
		attackers = append(attackers, attack.NewToggling("attacker", 0x050, 0x051))
	}
	for _, at := range attackers {
		s.bb.Attach(at)
	}
	if a < armHub {
		return s, nil
	}
	s.hub = telemetry.NewHub()
	s.hub.RetainEvents(false)
	s.bb.SetTelemetry(s.hub, "bus")
	s.defender.SetTelemetry(s.hub)
	defense.SetTelemetry(s.hub)
	if s.rp != nil {
		s.rp.SetTelemetry(s.hub)
	}
	for _, at := range attackers {
		at.SetTelemetry(s.hub)
	}
	if a < armForensics {
		return s, nil
	}
	s.eng = forensics.New(s.hub)
	feed := s.eng.Feed
	if tr != nil {
		feed = tr.timedFeed(feed)
	}
	s.unsub = s.hub.Subscribe(feed)
	if a < armWatch {
		return s, nil
	}
	if tr != nil {
		s.hub.Subscribe(tr.markStart)
	}
	s.w = watch.New(s.hub, s.eng, watch.Config{})
	if tr != nil {
		s.hub.Subscribe(tr.markWatch)
	}
	if a < armStore {
		return s, nil
	}
	cfg, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	if s.st, err = store.Create(dir, store.Meta{Kind: "vehicle", Config: cfg}); err != nil {
		return nil, err
	}
	s.sink = store.NewSink(s.st, s.hub, store.SinkOptions{CheckpointIntervalBits: checkpointBits})
	if tr != nil {
		s.hub.Subscribe(tr.markSink)
	}
	return s, nil
}

// WarmPlans pre-compiles the replayer's transmit plans, as
// experiment.FleetVehicle.WarmPlans does.
func (s *stack) WarmPlans() {
	if s.rp != nil {
		s.rp.WarmSplice(256)
	}
}

func (s *stack) ID() int             { return s.spec.Index }
func (s *stack) Now() int64          { return int64(s.bb.Now()) }
func (s *stack) HorizonBits() int64  { return s.spec.HorizonBits }
func (s *stack) Hub() *telemetry.Hub { return s.hub }
func (s *stack) Describe() string    { return fmt.Sprintf("veh%03d composed", s.spec.Index) }

func (s *stack) LiveIncidents() []forensics.Incident {
	if s.eng == nil {
		return nil
	}
	return s.eng.Incidents()
}

// Advance runs the bus forward, enqueueing the defender's periodic 0x173 at
// the same instants experiment.FleetVehicle.Advance does.
func (s *stack) Advance(bits int64) {
	end := s.bb.Now() + bus.BitTime(bits)
	for s.bb.Now() < end {
		if s.bb.Now() >= s.nextSend {
			if s.defender.PendingTx() == 0 {
				_ = s.defender.Enqueue(can.Frame{ID: experiment.DefenderID, Data: []byte{0x11, 0x22}})
			}
			s.nextSend += s.period
		}
		runTo := s.nextSend
		if runTo > end {
			runTo = end
		}
		s.bb.Run(int64(runTo - s.bb.Now()))
	}
}

// Finalize flushes forensics and returns the incident log. Persistence is
// finalizeStore's job, so the traced run can time it on its own.
func (s *stack) Finalize() []forensics.Incident {
	if s.eng == nil {
		return nil
	}
	if !s.done {
		s.done = true
		s.eng.Finalize(s.Now())
		s.unsub()
		s.incs = s.eng.Incidents()
	}
	return s.incs
}

// finalizeStore persists a finalized vehicle the way
// experiment.DurableVehicle.FinalizeDurable does, then closes the store.
func (s *stack) finalizeStore() error {
	if s.sink == nil {
		return nil
	}
	payloads, err := forensics.EncodeIncidents(s.incs)
	if err != nil {
		return err
	}
	if err := s.sink.AppendIncidents(payloads); err != nil {
		return err
	}
	alerts, err := s.w.EncodeAlertLog()
	if err != nil {
		return err
	}
	if err := s.sink.AppendAlerts(alerts); err != nil {
		return err
	}
	if err := s.sink.Close(s.Now(), true); err != nil {
		return err
	}
	return s.st.Close()
}

// release tears down a stack that is not finalized (set-up repetitions and
// marginal arms).
func (s *stack) release() {
	if s.w != nil {
		s.w.Close()
	}
	if s.unsub != nil {
		s.unsub()
	}
	if s.sink != nil {
		_ = s.sink.Close(s.Now(), false)
		_ = s.st.Close()
	}
}

// timedVehicle is the fleet.Vehicle timing wrapper: it records an Advance
// or Finalize span around every call the fleet (or the single-vehicle
// loop) makes.
type timedVehicle struct {
	fleet.Vehicle
	tr *tracer
}

func (t timedVehicle) Advance(bits int64) {
	sp := t.tr.begin(spanAdvance)
	t.Vehicle.Advance(bits)
	t.tr.end(sp)
}

func (t timedVehicle) Finalize() []forensics.Incident {
	sp := t.tr.begin(spanFinalize)
	defer t.tr.end(sp)
	return t.Vehicle.Finalize()
}
