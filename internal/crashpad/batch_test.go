package crashpad

import (
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"legosdn/internal/appvisor"
	"legosdn/internal/controller"
	"legosdn/internal/flowtable"
	"legosdn/internal/netlog"
	"legosdn/internal/netsim"
	"legosdn/internal/openflow"
)

// fakeSwitch is one in-memory switch table behind NetLog: the app's
// FlowMods reach it through the NetLog hook (netCtx), rollback
// inverses directly. It counts the deletes each rule suffers, so a test
// can tell a rule that stayed committed from one that was rolled back
// and installed again by a replay.
type fakeSwitch struct {
	mu      sync.Mutex
	table   *flowtable.Table
	deletes map[uint16]int // by rule (TpDst)
}

func newFakeSwitch() *fakeSwitch {
	return &fakeSwitch{
		table:   flowtable.New(netsim.NewFakeClock(time.Unix(10000, 0))),
		deletes: make(map[uint16]int),
	}
}

func (s *fakeSwitch) SendMessage(_ uint64, msg openflow.Message) error {
	fm, ok := msg.(*openflow.FlowMod)
	if !ok {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if fm.Command == openflow.FlowModDelete || fm.Command == openflow.FlowModDeleteStrict {
		s.deletes[fm.Match.TpDst]++
	}
	_, err := s.table.Apply(fm)
	return err
}

func (s *fakeSwitch) Barrier(uint64) error { return nil }

func (s *fakeSwitch) fingerprint() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.table.Fingerprint()
}

// rules is the set of installed rules, by TpDst.
func (s *fakeSwitch) rules() map[uint16]bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[uint16]bool)
	for _, e := range s.table.Entries() {
		out[e.Match.TpDst] = true
	}
	return out
}

// netCtx is the app-facing Context: FlowMods pass the NetLog hook, then
// hit the switch.
type netCtx struct {
	recCtx
	sw   *fakeSwitch
	hook controller.OutboundHook
}

func (c *netCtx) SendMessage(dpid uint64, msg openflow.Message) error {
	msg, err := c.hook(dpid, msg)
	if err != nil {
		return err
	}
	return c.sw.SendMessage(dpid, msg)
}
func (c *netCtx) SendFlowMod(d uint64, fm *openflow.FlowMod) error { return c.SendMessage(d, fm) }

// netRig is a Crash-Pad with NetLog in front of one fake switch.
type netRig struct {
	sw  *fakeSwitch
	nl  *netlog.Manager
	ctx *netCtx
}

func newNetRig() *netRig {
	sw := newFakeSwitch()
	nl := netlog.NewManager(sw, netsim.NewFakeClock(time.Unix(10000, 0)))
	return &netRig{sw: sw, nl: nl, ctx: &netCtx{sw: sw, hook: nl.Hook()}}
}

// consistent checks the NetLog shadow against the switch.
func (r *netRig) consistent(t *testing.T) {
	t.Helper()
	if got, want := r.nl.ShadowFingerprint(1), r.sw.fingerprint(); got != want {
		t.Fatalf("shadow %q != switch %q", got, want)
	}
	if r.nl.Active() != nil {
		t.Fatal("transaction left active")
	}
	if begun, done := r.nl.BegunTxns.Load(), r.nl.CommittedTxns.Load()+r.nl.Rollbacks.Load(); begun != done {
		t.Fatalf("%d transactions begun, %d closed", begun, done)
	}
}

// ruleFor is the rule event seq installs.
func ruleFor(seq uint64) *openflow.FlowMod {
	m := openflow.MatchAll()
	m.Wildcards &^= openflow.WildcardDlType | openflow.WildcardNwProto | openflow.WildcardTpDst
	m.DlType = 0x0800
	m.NwProto = 6
	m.TpDst = uint16(seq)
	return &openflow.FlowMod{Match: m, Command: openflow.FlowModAdd, Priority: 100,
		BufferID: openflow.BufferIDNone, OutPort: openflow.PortNone,
		Actions: []openflow.Action{&openflow.ActionOutput{Port: 1}}}
}

// flowApp installs one rule per PacketIn and records the events it
// finished, in order; that list is its checkpointed state. It panics
// after the FlowMod of every event in crashOn, and on SwitchDown when
// crashSwitchDown is set. Its batch handler announces each event
// boundary, as an in-process BatchApp must.
type flowApp struct {
	name            string
	crashOn         map[uint64]bool
	crashSwitchDown bool

	done      []uint64
	portDowns int

	batches   int // HandleEventBatch calls
	snapshots int
}

func (a *flowApp) Name() string                          { return a.name }
func (a *flowApp) Subscriptions() []controller.EventKind { return controller.AllEventKinds() }

func (a *flowApp) HandleEvent(ctx controller.Context, ev controller.Event) error {
	switch ev.Kind {
	case controller.EventPacketIn:
		if err := ctx.SendFlowMod(ev.DPID, ruleFor(ev.Seq)); err != nil {
			return err
		}
		if a.crashOn[ev.Seq] {
			panic(fmt.Sprintf("flowApp: poisoned event %d", ev.Seq))
		}
	case controller.EventSwitchDown:
		if a.crashSwitchDown {
			panic("flowApp: crash on switch down")
		}
	case controller.EventPortStatus:
		a.portDowns++
	}
	a.done = append(a.done, ev.Seq)
	return nil
}

func (a *flowApp) HandleEventBatch(ctx controller.Context, evs []controller.Event) error {
	a.batches++
	eb, _ := ctx.(controller.EventBoundary)
	for i, ev := range evs {
		if eb != nil {
			eb.BeginEvent(i)
		}
		if err := a.HandleEvent(ctx, ev); err != nil {
			return err
		}
	}
	return nil
}

func (a *flowApp) Snapshot() ([]byte, error) {
	a.snapshots++
	b := make([]byte, 8, 8+8*len(a.done))
	binary.BigEndian.PutUint64(b, uint64(a.portDowns))
	for _, s := range a.done {
		b = binary.BigEndian.AppendUint64(b, s)
	}
	return b, nil
}

func (a *flowApp) Restore(state []byte) error {
	if len(state) < 8 || len(state)%8 != 0 {
		return errors.New("bad state")
	}
	a.portDowns = int(binary.BigEndian.Uint64(state))
	a.done = nil
	for b := state[8:]; len(b) > 0; b = b[8:] {
		a.done = append(a.done, binary.BigEndian.Uint64(b))
	}
	return nil
}

func pktIns(from, to uint64) []controller.Event {
	var evs []controller.Event
	for s := from; s <= to; s++ {
		evs = append(evs, pktIn(s, 1))
	}
	return evs
}

func without(seqs []uint64, drop map[uint64]bool) []uint64 {
	var out []uint64
	for _, s := range seqs {
		if !drop[s] {
			out = append(out, s)
		}
	}
	return out
}

func seqRange(from, to uint64) []uint64 {
	var out []uint64
	for s := from; s <= to; s++ {
		out = append(out, s)
	}
	return out
}

// A crash at the first, a middle and the last event of a batch: the
// events before it stay committed (their rules are never deleted), the
// crashing event's FlowMod is rolled back, and the events after it are
// delivered after recovery, as a batch when more than one is left.
func TestBatchCrashPositions(t *testing.T) {
	for _, tc := range []struct {
		name       string
		crash      uint64
		redelivery int // batch calls after the crash
	}{
		{"first", 1, 1},
		{"middle", 4, 1},
		{"last", 8, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newNetRig()
			app := &flowApp{name: "fw", crashOn: map[uint64]bool{tc.crash: true}}
			cp := New(Options{NetLog: r.nl})

			if f := cp.RunEventBatch(app, r.ctx, pktIns(1, 8)); f != nil {
				t.Fatalf("crash should be recovered: %v", f)
			}
			crashed := map[uint64]bool{tc.crash: true}
			if want := without(seqRange(1, 8), crashed); !reflect.DeepEqual(app.done, want) {
				t.Fatalf("app state %v, want %v", app.done, want)
			}
			rules := r.sw.rules()
			for s := uint64(1); s <= 8; s++ {
				if rules[uint16(s)] == crashed[s] {
					t.Errorf("rule %d installed=%v after the batch", s, rules[uint16(s)])
				}
				if s < tc.crash && r.sw.deletes[uint16(s)] != 0 {
					t.Errorf("rule %d of an event before the crash was deleted %d time(s)", s, r.sw.deletes[uint16(s)])
				}
			}
			if r.sw.deletes[uint16(tc.crash)] != 1 {
				t.Errorf("crashing event's rule deleted %d time(s), want 1", r.sw.deletes[uint16(tc.crash)])
			}
			if got := r.nl.RolledBackMods.Load(); got != 1 {
				t.Errorf("RolledBackMods = %d, want 1: only the crashing event's FlowMod", got)
			}
			if app.batches != 1+tc.redelivery {
				t.Errorf("HandleEventBatch calls = %d, want %d", app.batches, 1+tc.redelivery)
			}
			if got := cp.ReplayedEvents.Load(); got != tc.crash-1 {
				t.Errorf("replayed %d events, want the %d before the crash", got, tc.crash-1)
			}
			tk := cp.Tickets()
			if len(tk) != 1 || tk[0].Event.Seq != tc.crash || tk[0].Outcome != OutcomeRecovered {
				t.Fatalf("tickets %+v", tk)
			}
			r.consistent(t)
		})
	}
}

// timeoutApp stands in for an AppVisor proxy whose batch RPC timed out:
// the stub handled evs[:hang] and made a Context call for evs[hang]
// before going silent, and the report blames evs[0], all the proxy can
// name without the boundary.
type timeoutApp struct {
	flowApp
	hang uint64 // seq of the event that never returns
	hung bool
}

func (a *timeoutApp) HandleEventBatch(ctx controller.Context, evs []controller.Event) error {
	a.batches++
	eb := ctx.(controller.EventBoundary)
	for i, ev := range evs {
		eb.BeginEvent(i)
		if ev.Seq == a.hang && !a.hung {
			a.hung = true
			_ = ctx.SendFlowMod(ev.DPID, ruleFor(ev.Seq))
			return &appvisor.CrashError{Report: &appvisor.CrashReport{
				App: a.name, Reason: appvisor.CrashTimeout, PanicValue: "stub call timed out",
				Event: evs[0], HasEvent: true,
			}}
		}
		if err := a.HandleEvent(ctx, ev); err != nil {
			return err
		}
	}
	return nil
}

func TestBatchTimeoutBlamesLastBoundary(t *testing.T) {
	r := newNetRig()
	app := &timeoutApp{flowApp: flowApp{name: "slow"}, hang: 3}
	cp := New(Options{NetLog: r.nl})
	if f := cp.RunEventBatch(app, r.ctx, pktIns(1, 6)); f != nil {
		t.Fatalf("timeout should be recovered: %v", f)
	}
	tk := cp.Tickets()
	if len(tk) != 1 || tk[0].Event.Seq != 3 {
		t.Fatalf("blamed %+v, want the event of the last boundary (seq 3)", tk)
	}
	if want := []uint64{1, 2, 4, 5, 6}; !reflect.DeepEqual(app.done, want) {
		t.Fatalf("app state %v, want %v", app.done, want)
	}
	if r.sw.deletes[1] != 0 || r.sw.deletes[2] != 0 || r.sw.deletes[3] != 1 {
		t.Fatalf("deletes %v: events 1 and 2 must stay committed, 3 rolled back", r.sw.deletes)
	}
	r.consistent(t)
}

// downApp's failure domain is down until Respawn.
type downApp struct {
	flowApp
	up       bool
	respawns int
}

func (a *downApp) StubUp() bool { return a.up }
func (a *downApp) Respawn() error {
	a.respawns++
	a.up = true
	return nil
}
func (a *downApp) HandleEventBatch(ctx controller.Context, evs []controller.Event) error {
	if !a.up {
		return appvisor.ErrStubDown
	}
	return a.flowApp.HandleEventBatch(ctx, evs)
}

func TestBatchStubDownAtStart(t *testing.T) {
	r := newNetRig()
	app := &downApp{flowApp: flowApp{name: "down"}}
	cp := New(Options{NetLog: r.nl})
	if f := cp.RunEventBatch(app, r.ctx, pktIns(1, 5)); f != nil {
		t.Fatalf("down stub should be respawned: %v", f)
	}
	if app.respawns != 1 {
		t.Fatalf("respawns = %d", app.respawns)
	}
	// The first event met the dead domain and is the one given up; the
	// rest are delivered to the respawned app as a batch.
	if want := []uint64{2, 3, 4, 5}; !reflect.DeepEqual(app.done, want) {
		t.Fatalf("app state %v, want %v", app.done, want)
	}
	if app.batches != 1 {
		t.Fatalf("batch calls on the live domain = %d, want 1", app.batches)
	}
	if tk := cp.Tickets(); len(tk) != 1 || tk[0].Event.Seq != 1 || tk[0].PanicValue != "stub down" {
		t.Fatalf("tickets %+v", tk)
	}
	r.consistent(t)
}

// With CheckpointEvery 4 and batches of 3, a batch is checkpointed when
// the cadence falls due on any of its events, and a crash restores the
// latest checkpoint and replays everything handled since.
func TestBatchCheckpointEveryN(t *testing.T) {
	r := newNetRig()
	app := &flowApp{name: "n4", crashOn: map[uint64]bool{11: true}}
	cp := New(Options{NetLog: r.nl, CheckpointEvery: 4})
	for from := uint64(1); from <= 12; from += 3 {
		if f := cp.RunEventBatch(app, r.ctx, pktIns(from, from+2)); f != nil {
			t.Fatalf("batch at %d: %v", from, f)
		}
	}
	// Events 1, 5 and 9 are due: checkpoints before the batches at 1, 4
	// and 7, none before 10. The crash rebaselines and restarts the
	// cadence, so event 12, delivered again on its own, is due too.
	if app.snapshots != 5 {
		t.Fatalf("snapshots = %d, want 3 cadence checkpoints, a rebaseline and 1 more", app.snapshots)
	}
	// The crash at 11 restores the checkpoint taken before 7 and replays
	// 7, 8, 9 and 10.
	if got := cp.ReplayedEvents.Load(); got != 4 {
		t.Fatalf("replayed %d events, want 4", got)
	}
	if want := without(seqRange(1, 12), map[uint64]bool{11: true}); !reflect.DeepEqual(app.done, want) {
		t.Fatalf("app state %v, want %v", app.done, want)
	}
	r.consistent(t)
}

// A pad with an invariant Checker or the delay buffer checks and
// commits per event, so it delivers a batch one event at a time.
func TestBatchFallsBackToPerEvent(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts func(*netRig) Options
	}{
		{"checker", func(r *netRig) Options {
			return Options{NetLog: r.nl, Checker: &scriptedChecker{}}
		}},
		{"delay-buffer", func(r *netRig) Options {
			return Options{DelayBuffer: netlog.NewDelayBuffer(r.sw)}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newNetRig()
			app := &flowApp{name: "fb", crashOn: map[uint64]bool{2: true}}
			cp := New(tc.opts(r))
			if f := cp.RunEventBatch(app, r.ctx, pktIns(1, 4)); f != nil {
				t.Fatalf("crash should be recovered: %v", f)
			}
			if app.batches != 0 {
				t.Fatalf("HandleEventBatch called %d time(s) on the per-event path", app.batches)
			}
			if app.snapshots != 5 {
				t.Fatalf("snapshots = %d, want 4 per-event checkpoints and a rebaseline", app.snapshots)
			}
			if want := []uint64{1, 3, 4}; !reflect.DeepEqual(app.done, want) {
				t.Fatalf("app state %v, want %v", app.done, want)
			}
		})
	}
}

func TestBatchEquivalenceMidBatch(t *testing.T) {
	r := newNetRig()
	r.ctx.ports = map[uint64][]openflow.PhyPort{1: {{PortNo: 1}, {PortNo: 2}}}
	app := &flowApp{name: "routing", crashSwitchDown: true}
	cp := New(Options{NetLog: r.nl, Policies: NewPolicySet(EquivalenceCompromise)})
	evs := []controller.Event{pktIn(1, 1), {Seq: 2, Kind: controller.EventSwitchDown, DPID: 1}, pktIn(3, 1), pktIn(4, 1)}
	if f := cp.RunEventBatch(app, r.ctx, evs); f != nil {
		t.Fatalf("equivalence should recover: %v", f)
	}
	if app.portDowns != 2 || cp.TransformedEvents.Load() != 1 {
		t.Fatalf("portDowns=%d transformed=%d, want the switch-down as two link-downs",
			app.portDowns, cp.TransformedEvents.Load())
	}
	// The transformed events have no Seq of their own.
	if want := []uint64{1, 0, 0, 3, 4}; !reflect.DeepEqual(app.done, want) {
		t.Fatalf("app state %v, want %v", app.done, want)
	}
	r.consistent(t)
}

func TestBatchNoCompromiseMidBatch(t *testing.T) {
	r := newNetRig()
	app := &flowApp{name: "sec", crashOn: map[uint64]bool{2: true}}
	cp := New(Options{NetLog: r.nl, Policies: NewPolicySet(NoCompromise)})
	f := cp.RunEventBatch(app, r.ctx, pktIns(1, 4))
	if f == nil || f.Event.Seq != 2 {
		t.Fatalf("no-compromise must quarantine on the crashing event, got %v", f)
	}
	rules := r.sw.rules()
	if !rules[1] || rules[2] || rules[3] || rules[4] {
		t.Fatalf("rules %v: event 1 committed, 2 rolled back, 3 and 4 never delivered", rules)
	}
	if app.batches != 1 {
		t.Fatalf("batch calls = %d: nothing is delivered to a quarantined app", app.batches)
	}
	r.consistent(t)
}

// Batched and per-event delivery of the same stream, crashes included,
// end in the same app state and the same switch table.
func TestBatchMatchesPerEventDelivery(t *testing.T) {
	crashOn := map[uint64]bool{3: true, 9: true, 10: true, 16: true, 24: true}
	run := func(batch int) (*flowApp, *netRig) {
		r := newNetRig()
		app := &flowApp{name: "eq", crashOn: crashOn}
		cp := New(Options{NetLog: r.nl, CheckpointEvery: 3})
		evs := pktIns(1, 24)
		for len(evs) > 0 {
			n := min(batch, len(evs))
			if batch == 1 {
				if f := cp.RunEvent(app, r.ctx, evs[0]); f != nil {
					t.Fatal(f)
				}
			} else if f := cp.RunEventBatch(app, r.ctx, evs[:n]); f != nil {
				t.Fatal(f)
			}
			evs = evs[n:]
		}
		r.consistent(t)
		return app, r
	}
	single, rs := run(1)
	for _, batch := range []int{2, 5, 8} {
		batched, rb := run(batch)
		if !reflect.DeepEqual(batched.done, single.done) {
			t.Fatalf("batch %d: app state %v, per-event %v", batch, batched.done, single.done)
		}
		if got, want := rb.sw.fingerprint(), rs.sw.fingerprint(); got != want {
			t.Fatalf("batch %d: switch %q, per-event %q", batch, got, want)
		}
		if batched.batches == 0 {
			t.Fatalf("batch %d: never delivered as a batch", batch)
		}
	}
}
