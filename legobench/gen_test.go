package main

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"time"

	"legosdn/internal/controller"
	"legosdn/internal/flowtable"
	"legosdn/internal/openflow"
)

func pin(ev controller.Event) *openflow.PacketIn { return ev.Message.(*openflow.PacketIn) }

func TestStreamsAreSeedDeterministic(t *testing.T) {
	layout := newFlowLayout(5, 8, 256)
	mk := map[string]func(seed int64) *stream{
		"flow":    func(seed int64) *stream { return newFlowStream(seed, layout) },
		"monitor": func(seed int64) *stream { return newMonitorStream(seed, 8, 100) },
	}
	for name, newStream := range mk {
		a, b, c := newStream(9), newStream(9), newStream(10)
		differs := false
		for i := 0; i < 500; i++ {
			ea := a.event(i%7 == 3)
			eb := b.event(i%7 == 3)
			ec := c.event(i%7 == 3)
			if ea.DPID != eb.DPID || pin(ea).BufferID != pin(eb).BufferID ||
				!bytes.Equal(pin(ea).Data, pin(eb).Data) {
				t.Fatalf("%s: event %d differs between two streams of seed 9", name, i)
			}
			if ea.DPID != ec.DPID || !bytes.Equal(pin(ea).Data, pin(ec).Data) {
				differs = true
			}
		}
		if !differs {
			t.Errorf("%s: seeds 9 and 10 produced the same stream", name)
		}
	}
	if !reflect.DeepEqual(poissonDue(100, 300, 3, 0), poissonDue(100, 300, 3, 0)) {
		t.Errorf("poissonDue is not a function of its seed")
	}
	if reflect.DeepEqual(poissonDue(100, 300, 3, 0), poissonDue(100, 300, 4, 0)) {
		t.Errorf("poissonDue ignores its seed")
	}
	if layout.base != newFlowLayout(5, 8, 256).base {
		t.Errorf("flow layout is not a function of its seed")
	}
}

func TestMonitorStreamPlantsEveryHundredthCrash(t *testing.T) {
	s := newMonitorStream(1, 8, 100)
	for i := 0; i < 1000; i++ {
		ev := s.event(false)
		if got, want := pin(ev).BufferID&crashBit != 0, i%100 == 99; got != want {
			t.Fatalf("event %d: crash=%v, want %v", i, got, want)
		}
	}
	if s.crashes != 10 || s.totalDelivered() != 990 {
		t.Errorf("crashes=%d delivered=%d, want 10 and 990", s.crashes, s.totalDelivered())
	}
}

func TestFlowIDRoundTrip(t *testing.T) {
	layout := newFlowLayout(1, 8, 256)
	for _, id := range []uint64{0, 1, flowHosts - 1, flowHosts, layout.id(8, 123456), layout.id(3, 0)} {
		ev := layout.space.PacketIn(id, 1, 0)
		got, err := packetFlow(pin(ev))
		if err != nil || got != id {
			t.Errorf("packetFlow(PacketIn(%d)) = %d, %v", id, got, err)
		}
	}
}

// tableCtx applies FlowMods to per-switch flow tables, standing in for
// the controller and switches.
type tableCtx struct {
	controller.Context
	tables map[uint64]*flowtable.Table
}

func (c *tableCtx) SendFlowMod(dpid uint64, fm *openflow.FlowMod) error {
	_, err := c.tables[dpid].Apply(fm)
	return err
}

func TestFIFOEvictionHoldsOccupancy(t *testing.T) {
	const switches, resident = 4, 16
	layout := newFlowLayout(2, switches, resident)
	ctx := &tableCtx{tables: map[uint64]*flowtable.Table{}}
	for d := uint64(1); d <= switches; d++ {
		ctx.tables[d] = flowtable.New(nil)
		for k := uint64(0); k < resident; k++ {
			if err := ctx.SendFlowMod(d, layout.addFlow(layout.id(d, k))); err != nil {
				t.Fatal(err)
			}
		}
	}
	app := &flowApp{layout: layout, probe: &appProbe{}}
	st := newFlowStream(3, layout)
	for i := 0; i < 400; i++ {
		ev := st.event(false)
		if err := app.HandleEvent(ctx, ev); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if n := ctx.tables[ev.DPID].Len(); n != resident {
			t.Fatalf("event %d: switch %d holds %d flows, want %d", i, ev.DPID, n, resident)
		}
	}
	// Each switch holds exactly its newest resident flows.
	for d := uint64(1); d <= switches; d++ {
		want := map[uint64]bool{}
		for k := st.next[d-1] - resident; k < st.next[d-1]; k++ {
			want[layout.id(d, k)] = true
		}
		for _, e := range ctx.tables[d].Entries() {
			if !want[e.Cookie] {
				t.Errorf("switch %d still holds flow %d, not among its newest %d", d, e.Cookie, resident)
			}
		}
		if got := app.installed[d-1]; got != st.delivered[d-1] {
			t.Errorf("switch %d: app counted %d installs, stream delivered %d", d, got, st.delivered[d-1])
		}
	}
}

func TestPlantedCrashReusesTheFlow(t *testing.T) {
	layout := newFlowLayout(4, 2, 8)
	st := newFlowStream(4, layout)
	crashed := map[uint64]uint64{} // dpid → flow id of its pending crashed event
	for i := 0; i < 200; i++ {
		ev := st.event(i%5 == 0)
		id, err := packetFlow(pin(ev))
		if err != nil {
			t.Fatal(err)
		}
		if want, ok := crashed[ev.DPID]; ok {
			if id != want {
				t.Fatalf("event %d on switch %d carries flow %d; the crashed event's flow %d was never installed", i, ev.DPID, id, want)
			}
			delete(crashed, ev.DPID)
		}
		if pin(ev).BufferID&crashBit != 0 {
			crashed[ev.DPID] = id
		}
	}
}

// instantInjector completes each event as it is injected, the way the
// runner tap would report it.
type instantInjector struct{ tr *tracker }

func (f *instantInjector) Inject(ev controller.Event) error {
	id, crash, ok := benchEvent(ev)
	if !ok {
		return errors.New("not a bench event")
	}
	now := f.tr.now()
	f.tr.finish(f.tr.ph.Load(), []uint32{id}, []bool{crash}, now, now, nil, 0, nil)
	return nil
}

func TestEventsHeldThroughFailoverAreTimedFromDue(t *testing.T) {
	tr := newTracker()
	st := newMonitorStream(1, 2, 0)
	g := &generator{tr: tr, st: st, drain: time.Second,
		target: func() injector { return &instantInjector{tr: tr} }}
	const n, killAt = 20, 8
	const gap = time.Millisecond
	const outage = 60 * time.Millisecond
	start := tr.now() + int64(5*time.Millisecond)
	due := make([]int64, n)
	for i := range due {
		due[i] = start + int64(i)*int64(gap)
	}
	var tKill int64
	ph, err := g.paced(due, func(i int) error {
		if i == killAt {
			tKill = tr.now()
			time.Sleep(outage) // no leader serves: the generator holds events
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := ph.completed.Load(); got != n {
		t.Fatalf("%d events completed, want %d", got, n)
	}
	outageEnd := tKill + int64(outage)
	for i := killAt; i < n; i++ {
		if due[i] > outageEnd {
			continue
		}
		lat := ph.exit[i] - due[i]
		if held := outageEnd - due[i]; lat < held {
			t.Errorf("event %d due during the outage: latency %v, less than the %v it was held", i, time.Duration(lat), time.Duration(held))
		}
		if late := ph.inject[i] - due[i]; late < outageEnd-due[i] {
			t.Errorf("event %d: generator lateness %v does not show the hold", i, time.Duration(late))
		}
	}
	if unavail := ph.exit[killAt] - tKill; unavail < int64(outage) {
		t.Errorf("first completion after the kill came %v after it, within the %v outage", time.Duration(unavail), outage)
	}
	if len(ph.lat) != n {
		t.Errorf("%d latency samples, want %d", len(ph.lat), n)
	}
}
