package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"legosdn/internal/appvisor"
	"legosdn/internal/controller"
	"legosdn/internal/netlog"
	"legosdn/internal/openflow"
)

// Interposers at the public seams the stack already accepts: a
// controller.AppRunner around Crash-Pad (Controller.SetRunner), a
// controller.App around each AppVisor proxy (handed to Crash-Pad by the
// runner tap), and a netlog.Journal around the durable journal
// (core.Config.Journal). Nothing inside the stack is instrumented.
//
// The runner tap is always installed: it is how the benchmark learns
// when Crash-Pad returns for an event. The app and journal taps time
// calls only while tracker.tracing is on.

// tracker is the benchmark's record of its own events.
type tracker struct {
	epoch   time.Time
	tracing atomic.Bool
	probe   appProbe     // the hosted app's own timings
	jrnNs   atomic.Int64 // cumulative time inside journal calls
	mods    atomic.Int64 // FlowMods seen by the counting outbound hook

	ph          atomic.Pointer[phase]
	completed   atomic.Int64
	traced      atomic.Int64 // events completed while tracing
	appFailures atomic.Int64

	mu         sync.Mutex
	recoveries []float64 // runner time of recovered planted crashes, ns
	unrecov    int       // planted crashes Crash-Pad did not recover
}

func newTracker() *tracker { return &tracker{epoch: time.Now()} }

func (t *tracker) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracker) setTracing(on bool) {
	t.tracing.Store(on)
	t.probe.on.Store(on)
}

// phase is one stretch of generated load. Paced phases know each
// event's due time; saturated phases only count.
type phase struct {
	first  uint32  // id of the phase's first event
	due    []int64 // due time per event (paced phases), ns since epoch
	inject []int64 // when the generator handed each event over
	exit   []int64 // when Crash-Pad returned for each event

	injected  atomic.Int64
	completed atomic.Int64
	lastExit  atomic.Int64

	mu  sync.Mutex
	lat []float64 // due → Crash-Pad return, ns, paced phases only
	led ledger
}

// Ledger stages, in path order. Each is a per-event self time.
const (
	stLateness  = iota // generator: due → Inject
	stQueue            // controller: Inject → runner entry
	stSnapRPC          // appvisor: snapshot round trip minus the app's time
	stAppSnap          // app: Snapshot inside the stub
	stCkptPut          // checkpoint: snapshot return → handler call, minus journal
	stRelay            // appvisor: event round trip minus the app's time
	stAppHandle        // app: handler inside the stub, minus its sends
	stSend             // netlog: the app's FlowMod sends, minus journal
	stJournal          // durable: time inside journal calls
	stCommit           // netlog: handler return → runner return, minus journal
	stRecovery         // crashpad: handler return → runner return on a crash
	numStages
)

var stageNames = [numStages]string{
	"gen.lateness_us",
	"controller.queue_wait_us",
	"appvisor.snapshot_rpc_us",
	"app.snapshot_us",
	"checkpoint.put_us",
	"appvisor.event_rpc_relay_us",
	"app.handle_us",
	"netlog.flowmod_send_us",
	"durable.journal_append_us",
	"netlog.commit_us",
	"crashpad.recovery_us",
}

// ledger sums stage times over a paced phase's events, in ns.
type ledger struct {
	events     int
	deliveries int
	rpcs       int
	total      float64 // Σ (Crash-Pad return − due)
	stage      [numStages]float64
}

// delivery is one runner call's timestamps (ns since epoch) and the
// cumulative journal time at each of them.
type delivery struct {
	entry, s0, s1, h0, h1 int64
	j0, jS1, jH0, jH1     int64
	appSnap, appHandle    int64
	appSend               int64
	snapped, handled      bool
	crashed               bool
	rpcs                  int
}

// benchEvent extracts the event id and planted-crash flag the generator
// put in a PacketIn's BufferID.
func benchEvent(ev controller.Event) (id uint32, crash, ok bool) {
	pin, isPin := ev.Message.(*openflow.PacketIn)
	if ev.Kind != controller.EventPacketIn || !isPin || pin.BufferID == openflow.BufferIDNone {
		return 0, false, false
	}
	return pin.BufferID &^ crashBit, pin.BufferID&crashBit != 0, true
}

// finish records a delivery of the events ids (crash flags alongside)
// that entered the runner at entry and returned at exit. d is nil when
// tracing is off.
func (t *tracker) finish(ph *phase, ids []uint32, crashes []bool, entry, exit int64, d *delivery, jX int64, f *controller.AppFailure) {
	if f != nil {
		t.appFailures.Add(int64(len(ids)))
	}
	for i, crash := range crashes {
		if !crash || i >= len(ids) {
			continue
		}
		t.mu.Lock()
		if f == nil {
			t.recoveries = append(t.recoveries, float64(exit-entry))
		} else {
			t.unrecov++
		}
		t.mu.Unlock()
	}
	t.completed.Add(int64(len(ids)))
	if d != nil {
		t.traced.Add(int64(len(ids)))
	}
	if ph == nil {
		return
	}
	ph.completed.Add(int64(len(ids)))
	ph.lastExit.Store(exit)
	if ph.due == nil {
		return
	}
	ph.mu.Lock()
	defer ph.mu.Unlock()
	for _, id := range ids {
		i := int(id - ph.first)
		if i < 0 || i >= len(ph.due) {
			continue
		}
		ph.exit[i] = exit
		ph.lat = append(ph.lat, float64(exit-ph.due[i]))
		if d == nil {
			continue
		}
		l := &ph.led
		l.events++
		l.total += float64(exit - ph.due[i])
		l.stage[stLateness] += float64(ph.inject[i] - ph.due[i])
		l.stage[stQueue] += float64(entry - ph.inject[i])
		d.addStages(l, exit, jX)
	}
	if d != nil {
		ph.led.deliveries++
		ph.led.rpcs += d.rpcs
	}
}

// addStages charges one event of the delivery with the delivery's stage
// times: every event of a batch waits for the whole batch.
func (d *delivery) addStages(l *ledger, exit, jX int64) {
	jEnd := jX
	if d.snapped {
		l.stage[stSnapRPC] += float64(d.s1 - d.s0 - d.appSnap)
		l.stage[stAppSnap] += float64(d.appSnap)
	}
	if d.handled {
		if d.snapped {
			l.stage[stCkptPut] += float64((d.h0 - d.s1) - (d.jH0 - d.jS1))
		}
		l.stage[stRelay] += float64(d.h1 - d.h0 - d.appHandle)
		l.stage[stAppHandle] += float64(d.appHandle - d.appSend)
		l.stage[stSend] += float64(d.appSend - (d.jH1 - d.jH0))
		if d.crashed {
			// Rollback, respawn and restore, journal abort included.
			l.stage[stRecovery] += float64(exit - d.h1)
			jEnd = d.jH1
		} else {
			l.stage[stCommit] += float64((exit - d.h1) - (jX - d.jH1))
		}
	}
	l.stage[stJournal] += float64(jEnd - d.j0)
}

// runnerTap wraps the stack's AppRunner (Crash-Pad).
type runnerTap struct {
	inner controller.AppRunner
	tr    *tracker

	mu   sync.Mutex
	apps map[controller.App]*appTap
}

// batchRunnerTap preserves controller.BatchRunner when the wrapped
// runner implements it, so a batch-aware Crash-Pad is measured on its
// batch path instead of being bypassed.
type batchRunnerTap struct{ *runnerTap }

// wrapRunner interposes on inner, preserving its optional interfaces.
func wrapRunner(inner controller.AppRunner, tr *tracker) controller.AppRunner {
	rt := &runnerTap{inner: inner, tr: tr, apps: make(map[controller.App]*appTap)}
	if _, ok := inner.(controller.BatchRunner); ok {
		return batchRunnerTap{rt}
	}
	return rt
}

func (r *runnerTap) RunEvent(app controller.App, ctx controller.Context, ev controller.Event) *controller.AppFailure {
	id, crash, ok := benchEvent(ev)
	if !ok {
		return r.inner.RunEvent(app, ctx, ev)
	}
	ids, crashes := [1]uint32{id}, [1]bool{crash}
	return r.deliver(app, ids[:], crashes[:], func(a controller.App) *controller.AppFailure {
		return r.inner.RunEvent(a, ctx, ev)
	})
}

func (b batchRunnerTap) RunEventBatch(app controller.App, ctx controller.Context, evs []controller.Event) *controller.AppFailure {
	ids := make([]uint32, 0, len(evs))
	crashes := make([]bool, 0, len(evs))
	for _, ev := range evs {
		if id, crash, ok := benchEvent(ev); ok {
			ids = append(ids, id)
			crashes = append(crashes, crash)
		}
	}
	run := func(a controller.App) *controller.AppFailure {
		return b.inner.(controller.BatchRunner).RunEventBatch(a, ctx, evs)
	}
	if len(ids) == 0 {
		return run(app)
	}
	return b.deliver(app, ids, crashes, run)
}

// deliver times one runner call for the given bench events. While
// tracing, run receives the app tap in place of app.
func (r *runnerTap) deliver(app controller.App, ids []uint32, crashes []bool, run func(controller.App) *controller.AppFailure) *controller.AppFailure {
	ph := r.tr.ph.Load()
	if !r.tr.tracing.Load() {
		entry := r.tr.now()
		f := run(app)
		r.tr.finish(ph, ids, crashes, entry, r.tr.now(), nil, 0, f)
		return f
	}
	at, err := r.tap(app)
	if err != nil {
		panic(err) // a bench app with a half lifecycle is a benchmark bug
	}
	d := &at.cur
	*d = delivery{}
	r.tr.probe.reset()
	d.j0 = r.tr.jrnNs.Load()
	d.entry = r.tr.now()
	f := run(at.wrapped)
	r.tr.finish(ph, ids, crashes, d.entry, r.tr.now(), d, r.tr.jrnNs.Load(), f)
	return f
}

// tap returns the cached app tap for app.
func (r *runnerTap) tap(app controller.App) (*appTap, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if at, ok := r.apps[app]; ok {
		return at, nil
	}
	at, err := wrapApp(app, r.tr)
	if err != nil {
		return nil, err
	}
	r.apps[app] = at
	return at, nil
}

// appTap forwards a controller.App (an AppVisor proxy) and times the
// round trips Crash-Pad makes through it. wrapped is the value handed
// to Crash-Pad: appTap plus whichever optional interfaces the proxy has.
type appTap struct {
	inner   controller.App
	tr      *tracker
	wrapped controller.App
	cur     delivery // the delivery in flight; runner goroutine only
}

// lifecycle is the failure-domain control Crash-Pad looks for on an app:
// liveness (StubUp) and relaunch (Respawn).
type lifecycle interface {
	StubUp() bool
	Respawn() error
}

type snapTap struct{ *appTap }
type batchTap struct{ *appTap }
type lifeTap struct{ *appTap }

// wrapApp builds the app tap for inner. The optional interfaces
// Crash-Pad and the controller check at run time — Snapshotter,
// BatchApp and the StubUp/Respawn lifecycle — are present on the
// wrapper exactly when inner has them.
func wrapApp(inner controller.App, tr *tracker) (*appTap, error) {
	at := &appTap{inner: inner, tr: tr}
	_, snap := inner.(controller.Snapshotter)
	_, batch := inner.(controller.BatchApp)
	_, up := inner.(interface{ StubUp() bool })
	_, respawn := inner.(interface{ Respawn() error })
	if up != respawn {
		return nil, fmt.Errorf("app %q has only half of StubUp/Respawn; cannot interpose", inner.Name())
	}
	s, b, l := snapTap{at}, batchTap{at}, lifeTap{at}
	switch {
	case snap && batch && up:
		at.wrapped = struct {
			*appTap
			snapTap
			batchTap
			lifeTap
		}{at, s, b, l}
	case snap && batch:
		at.wrapped = struct {
			*appTap
			snapTap
			batchTap
		}{at, s, b}
	case snap && up:
		at.wrapped = struct {
			*appTap
			snapTap
			lifeTap
		}{at, s, l}
	case batch && up:
		at.wrapped = struct {
			*appTap
			batchTap
			lifeTap
		}{at, b, l}
	case snap:
		at.wrapped = struct {
			*appTap
			snapTap
		}{at, s}
	case batch:
		at.wrapped = struct {
			*appTap
			batchTap
		}{at, b}
	case up:
		at.wrapped = struct {
			*appTap
			lifeTap
		}{at, l}
	default:
		at.wrapped = at
	}
	return at, nil
}

func (a *appTap) Name() string                          { return a.inner.Name() }
func (a *appTap) Subscriptions() []controller.EventKind { return a.inner.Subscriptions() }

func (a *appTap) HandleEvent(ctx controller.Context, ev controller.Event) error {
	return a.handle(func() error { return a.inner.HandleEvent(ctx, ev) })
}

func (b batchTap) HandleEventBatch(ctx controller.Context, evs []controller.Event) error {
	return b.handle(func() error { return b.inner.(controller.BatchApp).HandleEventBatch(ctx, evs) })
}

// handle times the delivery's first handler round trip; later ones
// (replays and transformed events during recovery) belong to recovery.
func (a *appTap) handle(call func() error) error {
	d := &a.cur
	d.rpcs++
	if d.handled {
		return call()
	}
	d.handled = true
	d.jH0 = a.tr.jrnNs.Load()
	d.h0 = a.tr.now()
	err := call()
	d.h1 = a.tr.now()
	d.jH1 = a.tr.jrnNs.Load()
	d.appHandle = a.tr.probe.handleNs.Load()
	d.appSend = a.tr.probe.sendNs.Load()
	var ce *appvisor.CrashError
	d.crashed = errors.As(err, &ce) || errors.Is(err, appvisor.ErrStubDown)
	return err
}

// Snapshot times the pre-event checkpoint's round trip; a snapshot after
// the handler (a post-recovery rebaseline) belongs to recovery.
func (s snapTap) Snapshot() ([]byte, error) {
	d := &s.cur
	d.rpcs++
	inner := s.inner.(controller.Snapshotter)
	if d.snapped || d.handled {
		return inner.Snapshot()
	}
	d.snapped = true
	d.s0 = s.tr.now()
	state, err := inner.Snapshot()
	d.s1 = s.tr.now()
	d.jS1 = s.tr.jrnNs.Load()
	d.appSnap = s.tr.probe.snapNs.Load()
	return state, err
}

func (s snapTap) Restore(state []byte) error {
	s.cur.rpcs++
	return s.inner.(controller.Snapshotter).Restore(state)
}

func (l lifeTap) StubUp() bool   { return l.inner.(lifecycle).StubUp() }
func (l lifeTap) Respawn() error { return l.inner.(lifecycle).Respawn() }

// journalTap times every journal append while tracing.
type journalTap struct {
	inner netlog.Journal
	tr    *tracker
}

func (j *journalTap) timed(call func() error) error {
	if !j.tr.tracing.Load() {
		return call()
	}
	t0 := time.Now()
	err := call()
	j.tr.jrnNs.Add(int64(time.Since(t0)))
	return err
}

func (j *journalTap) TxnBegin(id uint64) error {
	return j.timed(func() error { return j.inner.TxnBegin(id) })
}

func (j *journalTap) TxnOp(id uint64, op netlog.JournalOp) error {
	return j.timed(func() error { return j.inner.TxnOp(id, op) })
}

func (j *journalTap) TxnCommit(id uint64) error {
	return j.timed(func() error { return j.inner.TxnCommit(id) })
}

func (j *journalTap) TxnAbort(id uint64) error {
	return j.timed(func() error { return j.inner.TxnAbort(id) })
}

// flowModCounter is the counting outbound hook: it sees every FlowMod
// the controller sends while tracing, rollback inverses included.
func flowModCounter(tr *tracker) controller.OutboundHook {
	return func(_ uint64, msg openflow.Message) (openflow.Message, error) {
		if _, ok := msg.(*openflow.FlowMod); ok && tr.tracing.Load() {
			tr.mods.Add(1)
		}
		return msg, nil
	}
}
