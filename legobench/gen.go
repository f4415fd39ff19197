package main

import (
	"fmt"
	"math/rand"
	"time"

	"legosdn/internal/controller"
	"legosdn/internal/openflow"
	"legosdn/internal/workload"
)

// stream is a workload's event sequence, a pure function of its seed:
// which switch each PacketIn arrives at, which flow it carries and
// which events are planted crashes. Timing never changes it.
type stream struct {
	rng        *rand.Rand
	space      workload.FlowSpace
	switches   int
	layout     *flowLayout // flow workloads: ordinals per switch; nil = random flows
	next       [maxSwitches]uint64
	nextID     uint32
	crashEvery int // every crashEvery-th event is a planted crash; 0 = none
	count      int
	delivered  [maxSwitches]uint64 // non-crash events per switch
	crashes    int
}

// newFlowStream streams PacketIns for the flow app: each switch's next
// flow is its next ordinal, starting after the resident flows the
// set-up fill installed.
func newFlowStream(seed int64, layout *flowLayout) *stream {
	s := &stream{rng: rand.New(rand.NewSource(seed)), space: layout.space, switches: layout.switches, layout: layout, nextID: 1}
	for i := range s.next {
		s.next[i] = layout.resident
	}
	return s
}

// newMonitorStream streams PacketIns of random distinct flows.
func newMonitorStream(seed int64, switches, crashEvery int) *stream {
	return &stream{rng: rand.New(rand.NewSource(seed)), space: workload.NewFlowSpace(flowHosts),
		switches: switches, nextID: 1, crashEvery: crashEvery}
}

// event returns the next event. A planted crash (by the
// crashEvery cadence, or forced) does not advance its switch's ordinal:
// Crash-Pad rolls its FlowMods back and the app forgets it, so the next
// event on that switch installs the same flow.
func (s *stream) event(forceCrash bool) controller.Event {
	dpid := uint64(1 + s.rng.Intn(s.switches))
	crash := forceCrash || (s.crashEvery > 0 && s.count%s.crashEvery == s.crashEvery-1)
	s.count++
	var flow uint64
	if s.layout != nil {
		flow = s.layout.id(dpid, s.next[dpid-1])
		if !crash {
			s.next[dpid-1]++
		}
	} else {
		flow = uint64(s.rng.Int63()) % s.space.Distinct()
	}
	if crash {
		s.crashes++
	} else {
		s.delivered[dpid-1]++
	}
	id := s.nextID
	s.nextID++
	ev := s.space.PacketIn(flow, dpid, 0)
	buf := id
	if crash {
		buf |= crashBit
	}
	ev.Message.(*openflow.PacketIn).BufferID = buf
	return ev
}

// totalDelivered sums non-crash events over all switches.
func (s *stream) totalDelivered() uint64 {
	var n uint64
	for _, d := range s.delivered {
		n += d
	}
	return n
}

// injector is where the generator hands events over: the serving
// controller.
type injector interface {
	Inject(ev controller.Event) error
}

// generator injects a stream into whichever controller serves.
type generator struct {
	tr     *tracker
	st     *stream
	target func() injector
	drain  time.Duration // how long a phase's events may take to complete
}

func (g *generator) begin(ph *phase) {
	ph.first = g.st.nextID
	g.tr.ph.Store(ph)
}

func (g *generator) inject(ev controller.Event) error {
	if err := g.target().Inject(ev); err != nil {
		return fmt.Errorf("inject: %w", err)
	}
	return nil
}

// satWindow is how many events the saturated phase keeps in flight:
// enough that the controller and worker queues never run dry (and a
// parallel worker can fill a 32-event batch), few enough that the
// backlog drains quickly when the phase ends.
const satWindow = 128

// saturate injects back to back for dur (or until limit events, when
// limit > 0), keeping satWindow events in flight, then waits for the
// backlog to drain.
func (g *generator) saturate(dur time.Duration, limit int) (*phase, time.Duration, error) {
	ph := &phase{}
	g.begin(ph)
	start := g.tr.now()
	for g.tr.now()-start < int64(dur) && (limit == 0 || ph.injected.Load() < int64(limit)) {
		if err := g.waitBelow(ph, satWindow); err != nil {
			return ph, 0, err
		}
		ev := g.st.event(false)
		if err := g.inject(ev); err != nil {
			return ph, 0, err
		}
		ph.injected.Add(1)
	}
	if err := g.wait(ph); err != nil {
		return ph, 0, err
	}
	return ph, time.Duration(ph.lastExit.Load() - start), nil
}

// poissonDue lays out n due times (ns since the tracker epoch) at rate
// ev/s with seeded exponential gaps, starting at start.
func poissonDue(n int, rate float64, seed int64, start int64) []int64 {
	due := make([]int64, n)
	at := start
	for i, gap := range workload.PoissonArrivals(n, rate, seed) {
		at += int64(gap)
		due[i] = at
	}
	return due
}

// paced runs an open loop: event i is injected at due[i] (or as soon
// after as the generator gets to it) and timed from due[i]. before, if
// set, runs before each injection; when it blocks — a failover in
// progress — the events coming due meanwhile are held and injected
// late, so the outage shows in their latency.
func (g *generator) paced(due []int64, before func(i int) error) (*phase, error) {
	ph := &phase{due: due, inject: make([]int64, len(due)), exit: make([]int64, len(due))}
	g.begin(ph)
	for i := range due {
		if before != nil {
			if err := before(i); err != nil {
				return ph, err
			}
		}
		if d := due[i] - g.tr.now(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		ev := g.st.event(false)
		ph.inject[i] = g.tr.now()
		if err := g.inject(ev); err != nil {
			return ph, err
		}
		ph.injected.Add(1)
	}
	return ph, g.wait(ph)
}

// wait blocks until every event injected so far in ph has completed.
func (g *generator) wait(ph *phase) error { return g.waitBelow(ph, 1) }

// waitBelow blocks until fewer than n of ph's injected events are still
// in flight, or fails after g.drain.
func (g *generator) waitBelow(ph *phase, n int64) error {
	deadline := time.Now().Add(g.drain)
	for ph.injected.Load()-ph.completed.Load() >= n {
		if time.Now().After(deadline) {
			return fmt.Errorf("%d of %d events never completed",
				ph.injected.Load()-ph.completed.Load(), ph.injected.Load())
		}
		time.Sleep(100 * time.Microsecond)
	}
	return nil
}
