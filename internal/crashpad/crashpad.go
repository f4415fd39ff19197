package crashpad

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"legosdn/internal/appvisor"
	"legosdn/internal/checkpoint"
	"legosdn/internal/controller"
	"legosdn/internal/flightrec"
	"legosdn/internal/metrics"
	"legosdn/internal/netlog"
	"legosdn/internal/trace"
)

// Restartable is implemented by apps whose failure domain can be
// relaunched after a crash (appvisor.Proxy via Respawn).
type Restartable interface {
	Respawn() error
}

// livenessReporter is implemented by apps that know whether their
// failure domain is currently up (appvisor.Proxy via StubUp).
type livenessReporter interface {
	StubUp() bool
}

// Violation is one invariant breach found after an event's effects hit
// the network.
type Violation struct {
	// Desc names the breach, e.g. "black-hole at switch 3 for 10.0.0.2".
	Desc string
	// NoCompromise marks invariants the operator listed as
	// non-negotiable: a breach escalates to network shutdown (§5).
	NoCompromise bool
}

// InvariantChecker detects byzantine failures: output that violates
// network invariants (§3.3, detection via policy checkers).
type InvariantChecker interface {
	Check() []Violation
}

// Options configures a CrashPad.
type Options struct {
	// Store holds checkpoints (fresh store if nil).
	Store *checkpoint.Store
	// CheckpointEvery takes a checkpoint before every Nth event
	// (default 1 = the paper's base design; larger N enables the §5
	// replay optimization).
	CheckpointEvery int
	// Policies decides the availability/correctness trade per app and
	// event kind (default: AbsoluteCompromise everywhere).
	Policies *PolicySet
	// NetLog wraps each event in a network transaction and rolls back
	// on failure. Optional but strongly recommended.
	NetLog *netlog.Manager
	// DelayBuffer is the §4.1 prototype alternative to NetLog: hold
	// messages until the event completes. Ignored when NetLog is set.
	DelayBuffer *netlog.DelayBuffer
	// Checker, when set, is consulted after each event; violations are
	// byzantine failures.
	Checker InvariantChecker
	// OnTicket observes each problem ticket as it opens.
	OnTicket func(*Ticket)
	// OnNetworkShutdown fires when a No-Compromise invariant is
	// violated; the operator hook should fail the network closed.
	OnNetworkShutdown func(violations []Violation)
	// ReplicaFactory creates throwaway replicas of a named app for §5's
	// multi-event failure analysis (minimal causal sequences). nil
	// disables deep recovery.
	ReplicaFactory func(appName string) controller.App
	// DeepRecoveryThreshold is the consecutive-crash count that
	// escalates to deep recovery (default 3).
	DeepRecoveryThreshold int
	// Metrics, when set, receives the pad's counters plus
	// checkpoint/restore/recovery duration histograms and per-outcome
	// recovery counts.
	Metrics *metrics.Registry
	// Logger, when set, receives structured recovery diagnostics; lines
	// for traced events carry the trace id (wrap with trace.WrapHandler).
	Logger *slog.Logger
	// Flight is the always-on flight recorder: crash detections, policy
	// decisions, checkpoint puts/restores and replays become bounded
	// structured records that autopsies correlate across layers. Traced
	// events also leave checkpoint/recover/restore/replay spans, with
	// the recovery decision as span attributes. Nil no-ops.
	Flight *flightrec.Recorder
	// Autopsies, when set, receives an assembled autopsy report for
	// every recovery: culprit event, policy decision, eight-phase timeline
	// and the correlated flight records.
	Autopsies *flightrec.Store
	// Clock feeds recovery-phase timelines (default time.Now). Tests
	// inject a fake to pin phase-duration boundaries exactly.
	Clock func() time.Time
}

// CrashPad is the recovery engine. It implements controller.AppRunner
// and controller.BatchRunner; install it as the controller's Runner (or
// via legosdn's core facade).
type CrashPad struct {
	opts    Options
	everyN  *checkpoint.EveryN
	tickets ticketLog

	// window serializes transaction windows, from beginAtomic to commit
	// or rollback. NetLog journals hooked FlowMods into one global active
	// transaction (and the delay buffer holds one global batch), so two
	// apps on the parallel pipeline must not have windows open at once:
	// one app's FlowMods would land in the other's transaction. A
	// batched delivery holds the window across the whole batch.
	window sync.Mutex

	mu        sync.Mutex
	replays   map[string][]controller.Event // events since last checkpoint, per app
	histories map[string][]controller.Event // bounded full history, for deep recovery
	streaks   map[string]int                // consecutive crashes, per app

	// Metrics (atomic: read live by benchmarks and tests while the
	// dispatch goroutine recovers).
	CrashesSeen       metrics.Counter
	ByzantineSeen     metrics.Counter
	Recoveries        metrics.Counter
	IgnoredEvents     metrics.Counter
	TransformedEvents metrics.Counter
	ReplayedEvents    metrics.Counter
	Fallbacks         metrics.Counter
	Unrecoverable     metrics.Counter
	DeepRecoveries    metrics.Counter
	// SnapshotErrors counts Snapshot() calls that failed: each one is a
	// checkpoint silently not taken, so recovery depth degrades. A dead
	// serializer must be visible, not a bare return.
	SnapshotErrors metrics.Counter

	// Rate limit for the snapshot-failure warning (one line per second,
	// not one per event at 100k ev/s).
	warnMu   sync.Mutex
	lastWarn time.Time

	// Duration histograms and per-outcome counters; nil without a
	// registry (observing a nil instrument is a no-op).
	checkpointDur *metrics.Histogram
	restoreDur    *metrics.Histogram
	recoveryDur   *metrics.Histogram
	outcomeBy     [5]*metrics.Counter // indexed by Outcome
	// phaseDur breaks recovery time into the eight recovery phases, one
	// labeled histogram per flightrec.Phase.
	phaseDur [flightrec.NumPhases]*metrics.Histogram
}

// New creates a CrashPad.
func New(opts Options) *CrashPad {
	if opts.Store == nil {
		opts.Store = checkpoint.NewStore(0)
	}
	if opts.CheckpointEvery < 1 {
		opts.CheckpointEvery = 1
	}
	if opts.Policies == nil {
		opts.Policies = NewPolicySet(AbsoluteCompromise)
	}
	if opts.DeepRecoveryThreshold < 1 {
		opts.DeepRecoveryThreshold = defaultDeepThreshold
	}
	cp := &CrashPad{
		opts:      opts,
		everyN:    checkpoint.NewEveryN(opts.CheckpointEvery),
		replays:   make(map[string][]controller.Event),
		histories: make(map[string][]controller.Event),
		streaks:   make(map[string]int),
	}
	cp.tickets.onOpen = opts.OnTicket
	if reg := opts.Metrics; reg != nil {
		reg.RegisterCounter("legosdn_crashpad_crashes_seen_total", "fail-stop crashes detected", &cp.CrashesSeen)
		reg.RegisterCounter("legosdn_crashpad_byzantine_seen_total", "invariant violations detected", &cp.ByzantineSeen)
		reg.RegisterCounter("legosdn_crashpad_recoveries_total", "successful recoveries", &cp.Recoveries)
		reg.RegisterCounter("legosdn_crashpad_ignored_events_total", "offending events dropped", &cp.IgnoredEvents)
		reg.RegisterCounter("legosdn_crashpad_transformed_events_total", "events replaced by equivalents", &cp.TransformedEvents)
		reg.RegisterCounter("legosdn_crashpad_replayed_events_total", "events replayed from checkpoint suffix", &cp.ReplayedEvents)
		reg.RegisterCounter("legosdn_crashpad_fallbacks_total", "equivalence compromises that fell back to ignoring", &cp.Fallbacks)
		reg.RegisterCounter("legosdn_crashpad_unrecoverable_total", "recoveries whose restore machinery failed", &cp.Unrecoverable)
		reg.RegisterCounter("legosdn_crashpad_deep_recoveries_total", "multi-event deep recoveries", &cp.DeepRecoveries)
		reg.RegisterCounter("legosdn_checkpoint_snapshot_errors_total", "app Snapshot() failures on the checkpoint path", &cp.SnapshotErrors)
		opts.Store.Instrument(reg)
		cp.checkpointDur = reg.Histogram("legosdn_crashpad_checkpoint_seconds", "time to snapshot and store app state", nil)
		cp.restoreDur = reg.Histogram("legosdn_crashpad_restore_seconds", "time to respawn, load checkpoint and replay suffix", nil)
		cp.recoveryDur = reg.Histogram("legosdn_crashpad_recovery_seconds", "end-to-end recovery time per failure", nil)
		for o := OutcomeRecovered; o <= OutcomeNetworkShutdown; o++ {
			cp.outcomeBy[o] = reg.Counter(
				fmt.Sprintf("legosdn_crashpad_outcomes_total{outcome=%q}", o.String()),
				"recovery endings by policy outcome")
		}
		for p := flightrec.Phase(0); p < flightrec.NumPhases; p++ {
			cp.phaseDur[p] = reg.Histogram(
				fmt.Sprintf("legosdn_recovery_phase_seconds{phase=%q}", p.String()),
				"recovery time spent per phase (detect/isolate/checkpoint-restore/rollback/replay/resume)", nil)
		}
		opts.Autopsies.Instrument(reg)
	}
	return cp
}

// Tickets returns every problem ticket opened so far.
func (cp *CrashPad) Tickets() []*Ticket { return cp.tickets.all() }

// Store exposes the checkpoint store (for inspection and benchmarks).
func (cp *CrashPad) Store() *checkpoint.Store { return cp.opts.Store }

// failInfo is the normalized crash evidence from either detection path.
type failInfo struct {
	panicValue string
	stack      string
}

// invoke runs the handler inside the containment boundary, normalizing
// in-process panics and AppVisor crash reports into failInfo.
func invoke(app controller.App, ctx controller.Context, ev controller.Event) (handlerErr error, crash *failInfo) {
	defer func() {
		if r := recover(); r != nil {
			crash = &failInfo{panicValue: fmt.Sprint(r), stack: string(stackTrace())}
		}
	}()
	handlerErr = app.HandleEvent(ctx, ev)
	if crash, _ = crashFrom(handlerErr); crash != nil {
		return nil, crash
	}
	return handlerErr, nil
}

// crashFrom reads crash evidence out of a handler's error: an AppVisor
// crash report (returned too, for the event it blames) or a down stub.
// Any other error is the app's business, not a failure.
func crashFrom(err error) (*failInfo, *appvisor.CrashReport) {
	var ce *appvisor.CrashError
	if errors.As(err, &ce) {
		return &failInfo{panicValue: ce.Report.PanicValue, stack: ce.Report.Stack}, ce.Report
	}
	if errors.Is(err, appvisor.ErrStubDown) {
		return &failInfo{panicValue: "stub down"}, nil
	}
	return nil, nil
}

// RunEvent implements controller.AppRunner: checkpoint, transact,
// deliver, detect, recover.
func (cp *CrashPad) RunEvent(app controller.App, ctx controller.Context, ev controller.Event) *controller.AppFailure {
	name := app.Name()
	cp.maybeCheckpoint(app, name, 1, ev.Seq, ev.Trace)
	cp.noteHistory(name, ev)

	tx := cp.beginAtomic(ev.Trace)
	handlerErr, crash := invoke(app, ctx, ev)
	_ = handlerErr // handler errors are the app's business, not a failure

	if crash == nil {
		// Byzantine detection: did the event's network effects violate
		// an invariant? Barrier the touched switches first so in-flight
		// FlowMods are visible to the checker.
		if cp.opts.Checker != nil {
			if tx != nil {
				_ = tx.SyncTouched()
			}
			if violations := cp.opts.Checker.Check(); len(violations) > 0 {
				cp.ByzantineSeen.Add(1)
				// The recovery-phase timeline opens in detect; the
				// rollback phase brackets the transaction abort, and
				// recover() drives the rest.
				tl := flightrec.NewTimeline(cp.opts.Clock)
				cp.opts.Flight.Record(flightrec.Record{
					Layer: flightrec.LayerCrashPad, Kind: flightrec.KindCrashDetected,
					App: name, Trace: ev.Trace.TraceID, EvSeq: ev.Seq, DPID: ev.DPID,
					Note: fmt.Sprintf("byzantine: %d invariant violation(s)", len(violations)),
				})
				tl.Enter(flightrec.PhaseRollback)
				cp.rollbackAtomic(tx)
				tl.Enter(flightrec.PhaseIsolate)
				return cp.recover(app, ctx, ev, Byzantine, &failInfo{panicValue: "invariant violation"}, violations, tl)
			}
		}
		cp.commitAtomic(tx)
		cp.mu.Lock()
		cp.replays[name] = append(cp.replays[name], ev)
		cp.mu.Unlock()
		cp.resetStreak(name)
		return nil
	}

	return cp.failStop(app, ctx, ev, crash, tx, true)
}

// failStop handles a fail-stop crash on ev: it closes the open
// transaction tx (rolled back when it holds ev's own FlowMods, committed
// when it belongs to an earlier event of a batch) and recovers.
func (cp *CrashPad) failStop(app controller.App, ctx controller.Context, ev controller.Event,
	crash *failInfo, tx *netlog.Txn, abort bool) *controller.AppFailure {

	cp.CrashesSeen.Add(1)
	tl := flightrec.NewTimeline(cp.opts.Clock)
	cp.opts.Flight.Record(flightrec.Record{
		Layer: flightrec.LayerCrashPad, Kind: flightrec.KindCrashDetected,
		App: app.Name(), Trace: ev.Trace.TraceID, EvSeq: ev.Seq, DPID: ev.DPID,
		Note: "fail-stop: " + crash.panicValue,
	})
	tl.Enter(flightrec.PhaseRollback)
	if abort {
		cp.rollbackAtomic(tx)
	} else {
		cp.commitAtomic(tx)
	}
	tl.Enter(flightrec.PhaseIsolate)
	return cp.recover(app, ctx, ev, FailStop, crash, nil, tl)
}

// RunEventBatch implements controller.BatchRunner. A BatchApp gets a
// batch in one HandleEventBatch call, with at most one checkpoint before
// it, and each event's FlowMods still in their own NetLog transaction
// (see batchContext). A crash at evs[i] leaves evs[:i] committed and on
// the replay suffix, recovers evs[i] exactly as RunEvent would, and then
// delivers evs[i+1:] again. The restore point is the checkpoint before
// the batch plus a replay of evs[:i], which rests on the same
// determinism argument as the every-N cadence.
//
// The per-event path stays the only path for single events, apps
// without HandleEventBatch, and pads whose checks are per event: an
// invariant Checker runs after each event, and the delay buffer holds
// one event's messages.
func (cp *CrashPad) RunEventBatch(app controller.App, ctx controller.Context, evs []controller.Event) *controller.AppFailure {
	ba, ok := app.(controller.BatchApp)
	delayBuffered := cp.opts.NetLog == nil && cp.opts.DelayBuffer != nil // NetLog wins when both are set
	if ok && cp.opts.Checker == nil && !delayBuffered {
		for len(evs) > 1 {
			i, failure := cp.runBatch(app, ba, ctx, evs)
			if failure != nil || i == len(evs) {
				return failure
			}
			evs = evs[i+1:]
		}
	}
	for _, ev := range evs {
		if failure := cp.RunEvent(app, ctx, ev); failure != nil {
			return failure
		}
	}
	return nil
}

// runBatch delivers evs (two or more) in one call. It returns len(evs)
// when the whole batch completed, or the index of the event that
// crashed once that crash is recovered; a non-nil failure means
// recovery gave up and the app is to be quarantined.
func (cp *CrashPad) runBatch(app controller.App, ba controller.BatchApp, ctx controller.Context, evs []controller.Event) (int, *controller.AppFailure) {
	name := app.Name()
	cp.maybeCheckpoint(app, name, len(evs), evs[0].Seq, evs[0].Trace)

	bctx := &batchContext{Context: ctx, cp: cp, evs: evs, tx: cp.beginAtomic(evs[0].Trace)}
	crash, blamed := invokeBatch(ba, bctx, evs)
	i, tx := bctx.close()

	if crash == nil {
		cp.commitAtomic(tx)
		cp.mu.Lock()
		cp.replays[name] = append(cp.replays[name], evs...)
		cp.noteHistoryLocked(name, evs...)
		delete(cp.streaks, name)
		cp.mu.Unlock()
		return len(evs), nil
	}
	// The culprit is the event the crash report names, and never one
	// before the last event that reached a Context call: a timeout
	// cannot tell, but those events finished their calls.
	open := i
	if blamed > i {
		i = blamed
	}
	cp.mu.Lock()
	cp.replays[name] = append(cp.replays[name], evs[:i]...)
	cp.noteHistoryLocked(name, evs[:i+1]...)
	if i > 0 {
		delete(cp.streaks, name)
	}
	cp.mu.Unlock()
	return i, cp.failStop(app, ctx, evs[i], crash, tx, open == i)
}

// invokeBatch runs a batched handler inside the containment boundary.
// blamed is the index of the event a crash report names, or -1.
func invokeBatch(ba controller.BatchApp, ctx controller.Context, evs []controller.Event) (crash *failInfo, blamed int) {
	blamed = -1
	defer func() {
		if r := recover(); r != nil {
			crash = &failInfo{panicValue: fmt.Sprint(r), stack: string(stackTrace())}
		}
	}()
	crash, report := crashFrom(ba.HandleEventBatch(ctx, evs))
	if report != nil && report.HasEvent {
		for j := range evs {
			if evs[j].Seq == report.Event.Seq {
				blamed = j
				break
			}
		}
	}
	return crash, blamed
}

// batchContext is the Context of one batched delivery. It keeps one
// NetLog transaction per event: BeginEvent(j) commits the open
// transaction and opens evs[j]'s, so the transaction open when the app
// crashes holds only the FlowMods of the event that made the last
// Context call. Events that make no Context call open no transaction.
// The pad's window is held for the whole batch; BeginEvent runs inside
// it and does not take it.
type batchContext struct {
	controller.Context
	cp  *CrashPad
	evs []controller.Event

	mu     sync.Mutex
	cur    int         // the event whose transaction is open
	tx     *netlog.Txn // nil without NetLog
	closed bool        // the delivery returned; late boundaries are ignored
}

// BeginEvent implements controller.EventBoundary.
func (b *batchContext) BeginEvent(i int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed || i <= b.cur || i >= len(b.evs) {
		return
	}
	b.cp.endTxn(b.tx, true)
	b.cur = i
	b.tx = b.cp.openTxn(b.evs[i].Trace)
}

// close ends the delivery and hands back the open transaction and the
// event it belongs to, for the caller to settle.
func (b *batchContext) close() (int, *netlog.Txn) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.closed = true
	return b.cur, b.tx
}

// recover drives the §3.3 recovery loop for one failure. tl is the
// recovery-phase timeline opened at detection; recover advances it
// through isolate/restore/replay/resume and finish() freezes it into
// the phase histograms and the autopsy.
func (cp *CrashPad) recover(app controller.App, ctx controller.Context, ev controller.Event,
	class FailureClass, info *failInfo, violations []Violation, tl *flightrec.Timeline) *controller.AppFailure {

	name := app.Name()
	start := time.Now()
	policy := cp.opts.Policies.For(name, ev.Kind)
	cp.opts.Flight.Record(flightrec.Record{
		Layer: flightrec.LayerCrashPad, Kind: flightrec.KindPolicyDecision,
		App: name, Trace: ev.Trace.TraceID, EvSeq: ev.Seq,
		Note: fmt.Sprintf("class=%s policy=%s", class, policy),
	})
	// The recovery span brackets the whole decision loop; finish() closes
	// it with the chosen policy, decision and outcome as attributes. Its
	// context parents the restore/replay spans below.
	recSpan := cp.opts.Flight.StartSpan(ev.Trace, "crashpad.recover")
	recCtx := ev.Trace
	decision := "ignored"
	if recSpan != nil {
		recSpan.Attr("app", name).
			Attr("class", class.String()).
			Attr("policy", policy.String())
		recCtx.SpanID = recSpan.Context().SpanID
	}
	ticket := &Ticket{
		App:        name,
		Class:      class,
		Event:      ev,
		HasEvent:   true,
		PanicValue: info.panicValue,
		Stack:      info.stack,
		Policy:     policy,
	}
	for _, v := range violations {
		ticket.Violations = append(ticket.Violations, v.Desc)
	}
	// The tail of the event history gives the developer a reproduction
	// trace alongside the stack.
	const ticketTrace = 8
	hist := cp.history(name)
	if len(hist) > ticketTrace {
		hist = hist[len(hist)-ticketTrace:]
	}
	for _, hev := range hist {
		ticket.RecentEvents = append(ticket.RecentEvents, hev.String())
	}
	finish := func(outcome Outcome) {
		ticket.Outcome = outcome
		tl.Finish()
		if tl != nil {
			// The timeline's clock is authoritative (tests inject fakes);
			// fall back to wall time when no timeline was opened.
			ticket.RecoveryTime = tl.Total()
		} else {
			ticket.RecoveryTime = time.Since(start)
		}
		cp.recoveryDur.Observe(ticket.RecoveryTime.Seconds())
		if tl != nil {
			durs := tl.Durations()
			for p := flightrec.Phase(0); p < flightrec.NumPhases; p++ {
				cp.phaseDur[p].Observe(durs[p].Seconds())
			}
		}
		if int(outcome) < len(cp.outcomeBy) {
			cp.outcomeBy[outcome].Inc()
		}
		cp.tickets.open(ticket)
		cp.opts.Flight.Record(flightrec.Record{
			Layer: flightrec.LayerCrashPad, Kind: flightrec.KindRecoveryDone,
			App: name, Trace: ev.Trace.TraceID, EvSeq: ev.Seq,
			Note: fmt.Sprintf("outcome=%s decision=%s", outcome, decision),
		})
		if recSpan != nil {
			recSpan.Attr("decision", decision).Attr("outcome", outcome.String()).End()
		}
		if cp.opts.Autopsies != nil {
			trigger := "app-crash"
			if class == Byzantine {
				trigger = "byzantine"
			}
			a := &flightrec.Autopsy{
				App:             name,
				Trigger:         trigger,
				Class:           class.String(),
				Culprit:         ev.String(),
				TicketID:        ticket.ID,
				Policy:          policy.String(),
				Decision:        decision,
				Outcome:         outcome.String(),
				PanicValue:      info.panicValue,
				Violations:      append([]string(nil), ticket.Violations...),
				Notes:           append([]string(nil), ticket.Notes...),
				Timeline:        tl.Phases(),
				RecoverySeconds: ticket.RecoveryTime.Seconds(),
				Records:         cp.opts.Flight.Correlated(name, ev.Trace.TraceID, 0, 16),
			}
			if ev.Trace.TraceID != 0 {
				a.TraceID = trace.IDString(ev.Trace.TraceID)
			}
			cp.opts.Autopsies.Add(a)
		}
		if lg := cp.opts.Logger; lg != nil {
			lctx := trace.ContextWith(context.Background(), ev.Trace)
			lctx = trace.ContextWithCrash(lctx, name, ticket.ID)
			lg.LogAttrs(lctx, slog.LevelWarn,
				"app failure recovered",
				slog.String("class", class.String()),
				slog.String("policy", policy.String()),
				slog.String("decision", decision),
				slog.String("outcome", outcome.String()),
				slog.String("event", ev.String()),
				slog.Duration("recovery_time", ticket.RecoveryTime))
		}
	}
	quarantine := func() *controller.AppFailure {
		return &controller.AppFailure{App: name, Event: ev, PanicValue: info.panicValue, Stack: []byte(info.stack)}
	}

	// No-Compromise invariant violations shut the network down (§5).
	for _, v := range violations {
		if v.NoCompromise {
			if cp.opts.OnNetworkShutdown != nil {
				cp.opts.OnNetworkShutdown(violations)
			}
			finish(OutcomeNetworkShutdown)
			return quarantine()
		}
	}

	if policy == NoCompromise {
		// Availability sacrificed for correctness: let the app stay down.
		finish(OutcomeAppDown)
		return quarantine()
	}

	// A crash storm means the corruption predates the last checkpoint:
	// escalate to the §5 multi-event pipeline (history minimization +
	// deeper rollback) before the plain single-event path.
	if streak := cp.crashStreak(name); streak >= cp.opts.DeepRecoveryThreshold {
		tl.Enter(flightrec.PhaseRestore)
		if err := cp.deepRecover(app, ctx, name, ticket); err == nil {
			cp.Recoveries.Add(1)
			cp.IgnoredEvents.Add(1) // the inducing events were excised
			decision = "deep"
			finish(OutcomeRecovered)
			return nil
		} else {
			ticket.Notes = append(ticket.Notes, fmt.Sprintf("deep recovery unavailable: %v", err))
		}
	}

	// Restore the app to its pre-event state: respawn, load checkpoint,
	// replay the suffix.
	if err := cp.restoreApp(app, ctx, name, recCtx, tl); err != nil {
		cp.Unrecoverable.Add(1)
		ticket.Notes = append(ticket.Notes, fmt.Sprintf("restore failed: %v", err))
		finish(OutcomeUnrecoverable)
		return quarantine()
	}
	tl.Enter(flightrec.PhaseResume)

	outcome := OutcomeRecovered
	switch policy {
	case AbsoluteCompromise:
		cp.IgnoredEvents.Add(1)
		ticket.Notes = append(ticket.Notes, "offending event ignored (absolute compromise)")
	case EquivalenceCompromise:
		evs := EquivalentEvents(ctx, ev)
		if len(evs) == 0 {
			cp.Fallbacks.Add(1)
			cp.IgnoredEvents.Add(1)
			outcome = OutcomeFallback
			ticket.Notes = append(ticket.Notes, "no equivalent events; fell back to ignoring")
			break
		}
		if err := cp.deliverTransformed(app, ctx, evs, recCtx); err != nil {
			// The transformed events crashed the app too: restore once
			// more and fall back to ignoring.
			cp.Fallbacks.Add(1)
			cp.IgnoredEvents.Add(1)
			outcome = OutcomeFallback
			ticket.Notes = append(ticket.Notes, fmt.Sprintf("equivalent events also failed (%v); fell back to ignoring", err))
			if err := cp.restoreApp(app, ctx, name, recCtx, tl); err != nil {
				cp.Unrecoverable.Add(1)
				ticket.Notes = append(ticket.Notes, fmt.Sprintf("second restore failed: %v", err))
				finish(OutcomeUnrecoverable)
				return quarantine()
			}
		} else {
			cp.TransformedEvents.Add(1)
			decision = "transformed"
			ticket.Notes = append(ticket.Notes,
				fmt.Sprintf("event transformed into %d equivalent event(s)", len(evs)))
		}
	}

	// Re-baseline: fresh checkpoint of the recovered state.
	cp.rebaseline(app, name, ev.Seq+1)
	cp.Recoveries.Add(1)
	finish(outcome)
	return nil // the controller sees a healthy app
}

// deliverTransformed runs the equivalence-compromise replacement events
// through the same transactional machinery. sc parents the transformed
// deliveries under the recovery span of the event they replace.
func (cp *CrashPad) deliverTransformed(app controller.App, ctx controller.Context, evs []controller.Event, sc trace.SpanContext) error {
	for _, tev := range evs {
		tev.Trace = sc
		tx := cp.beginAtomic(sc)
		_, crash := invoke(app, ctx, tev)
		if crash != nil {
			cp.rollbackAtomic(tx)
			return fmt.Errorf("crash on transformed event %v: %s", tev, crash.panicValue)
		}
		if cp.opts.Checker != nil {
			if tx != nil {
				_ = tx.SyncTouched()
			}
			if violations := cp.opts.Checker.Check(); len(violations) > 0 {
				cp.rollbackAtomic(tx)
				return fmt.Errorf("transformed event %v violated %d invariant(s)", tev, len(violations))
			}
		}
		cp.commitAtomic(tx)
	}
	return nil
}

// restoreApp brings the app back to its last checkpointed state and
// replays the events processed since. sc parents the restore and replay
// spans (normally the recovery span's context); tl charges the
// checkpoint-restore and replay phases.
func (cp *CrashPad) restoreApp(app controller.App, ctx controller.Context, name string, sc trace.SpanContext, tl *flightrec.Timeline) error {
	tl.Enter(flightrec.PhaseRestore)
	if cp.restoreDur != nil {
		defer cp.restoreDur.ObserveSince(time.Now())
	}
	if sp := cp.opts.Flight.StartSpan(sc, "crashpad.restore"); sp != nil {
		sp.Attr("app", name)
		sc = sp.Context()
		defer sp.End()
	}
	// Relaunch the failure domain if it is down.
	if lr, ok := app.(livenessReporter); ok && !lr.StubUp() {
		r, ok := app.(Restartable)
		if !ok {
			return fmt.Errorf("app %q domain is down and not restartable", name)
		}
		if err := r.Respawn(); err != nil {
			return fmt.Errorf("respawn: %w", err)
		}
	}
	// Load the last checkpoint. An app without one (never snapshotted)
	// restarts fresh — the best available approximation.
	snap, canSnap := app.(controller.Snapshotter)
	last := cp.opts.Store.Latest(name)
	if canSnap && last != nil {
		if err := snap.Restore(last.State); err != nil {
			return fmt.Errorf("restore checkpoint: %w", err)
		}
		cp.opts.Flight.Record(flightrec.Record{
			Layer: flightrec.LayerCheckpoint, Kind: flightrec.KindCheckpointRestore,
			App: name, Trace: sc.TraceID, EvSeq: last.Seq,
			Note: fmt.Sprintf("restored checkpoint seq=%d", last.Seq),
		})
	}
	// Replay the suffix (§5: checkpoint every few events, replay the
	// rest at recovery).
	cp.mu.Lock()
	suffix := append([]controller.Event(nil), cp.replays[name]...)
	cp.mu.Unlock()
	tl.Enter(flightrec.PhaseReplay)
	for _, rev := range suffix {
		// Replayed events run under the restore span, not their original
		// trace: the replay belongs to this recovery's timeline.
		rsp := cp.opts.Flight.StartSpan(sc, "crashpad.replay")
		if rsp != nil {
			rsp.AttrInt("seq", int64(rev.Seq)).Attr("kind", rev.Kind.String())
			rev.Trace = rsp.Context()
		}
		tx := cp.beginAtomic(rev.Trace)
		_, crash := invoke(app, ctx, rev)
		if crash != nil {
			cp.rollbackAtomic(tx)
			rsp.End()
			return fmt.Errorf("replay of %v crashed: %s", rev, crash.panicValue)
		}
		cp.commitAtomic(tx)
		rsp.End()
		cp.ReplayedEvents.Add(1)
		cp.opts.Flight.Record(flightrec.Record{
			Layer: flightrec.LayerCrashPad, Kind: flightrec.KindReplay,
			App: name, Trace: rev.Trace.TraceID, EvSeq: rev.Seq, DPID: rev.DPID,
			Note: rev.Kind.String(),
		})
	}
	return nil
}

// maybeCheckpoint advances the every-N cadence over the next k events
// and takes one snapshot before them if any is due. seq and sc are the
// sequence number and trace context of the first of them.
func (cp *CrashPad) maybeCheckpoint(app controller.App, name string, k int, seq uint64, sc trace.SpanContext) {
	snap, ok := app.(controller.Snapshotter)
	if !ok {
		return
	}
	if !cp.everyN.Advance(name, k) {
		return
	}
	if sp := cp.opts.Flight.StartSpan(sc, "crashpad.checkpoint"); sp != nil {
		sp.Attr("app", name).AttrInt("seq", int64(seq))
		defer sp.End()
	}
	if cp.checkpointDur != nil {
		defer cp.checkpointDur.ObserveSince(time.Now())
	}
	state, err := snap.Snapshot()
	if err != nil {
		// Snapshotting is best-effort — recovery degrades gracefully —
		// but the degradation must be observable.
		cp.noteSnapshotError(name, seq, err)
		return
	}
	cp.opts.Store.Put(name, seq, state)
	cp.opts.Flight.Record(flightrec.Record{
		Layer: flightrec.LayerCheckpoint, Kind: flightrec.KindCheckpointPut,
		App: name, Trace: sc.TraceID, EvSeq: seq, N: int32(len(state)),
	})
	cp.mu.Lock()
	cp.replays[name] = nil
	cp.mu.Unlock()
}

// noteSnapshotError makes a failed Snapshot() visible: counter always,
// warning at most once per second.
func (cp *CrashPad) noteSnapshotError(name string, seq uint64, err error) {
	cp.SnapshotErrors.Inc()
	lg := cp.opts.Logger
	if lg == nil {
		return
	}
	cp.warnMu.Lock()
	now := time.Now()
	ok := now.Sub(cp.lastWarn) >= time.Second
	if ok {
		cp.lastWarn = now
	}
	cp.warnMu.Unlock()
	if ok {
		lg.Warn("app snapshot failing; checkpoint not taken and recovery depth degraded",
			slog.String("app", name),
			slog.Uint64("seq", seq),
			slog.String("error", err.Error()),
			slog.Uint64("snapshot_errors_total", cp.SnapshotErrors.Load()))
	}
}

// DropApp forgets everything the pad holds for a removed app: its
// checkpoints (durably, via the store's drop record), replay suffix,
// event history, crash streak, and checkpoint cadence. Without this,
// cadence counters and histories leak for every app ever uninstalled.
func (cp *CrashPad) DropApp(name string) {
	cp.opts.Store.Drop(name)
	cp.everyN.Reset(name)
	cp.mu.Lock()
	delete(cp.replays, name)
	delete(cp.histories, name)
	delete(cp.streaks, name)
	cp.mu.Unlock()
}

// rebaseline takes an immediate post-recovery checkpoint and restarts
// the cadence.
func (cp *CrashPad) rebaseline(app controller.App, name string, seq uint64) {
	snap, ok := app.(controller.Snapshotter)
	if !ok {
		return
	}
	if cp.checkpointDur != nil {
		defer cp.checkpointDur.ObserveSince(time.Now())
	}
	state, err := snap.Snapshot()
	if err != nil {
		cp.noteSnapshotError(name, seq, err)
		return
	}
	cp.opts.Store.Put(name, seq, state)
	cp.opts.Flight.Record(flightrec.Record{
		Layer: flightrec.LayerCheckpoint, Kind: flightrec.KindCheckpointPut,
		App: name, EvSeq: seq, N: int32(len(state)),
		Note: "rebaseline",
	})
	cp.mu.Lock()
	cp.replays[name] = nil
	cp.mu.Unlock()
	cp.everyN.Reset(name)
}

// --- atomic-update plumbing: NetLog or the delay-buffer prototype ---

// atomic reports whether the pad has atomic-update machinery, and so a
// transaction window to serialize.
func (cp *CrashPad) atomic() bool {
	return cp.opts.NetLog != nil || cp.opts.DelayBuffer != nil
}

// beginAtomic opens the pad's transaction window and a transaction in
// it; commitAtomic or rollbackAtomic closes both.
func (cp *CrashPad) beginAtomic(sc trace.SpanContext) *netlog.Txn {
	if !cp.atomic() {
		return nil
	}
	cp.window.Lock()
	return cp.openTxn(sc)
}

func (cp *CrashPad) commitAtomic(tx *netlog.Txn) {
	if cp.atomic() {
		cp.endTxn(tx, true)
		cp.window.Unlock()
	}
}

func (cp *CrashPad) rollbackAtomic(tx *netlog.Txn) {
	if cp.atomic() {
		cp.endTxn(tx, false)
		cp.window.Unlock()
	}
}

// openTxn starts a transaction inside the held window.
func (cp *CrashPad) openTxn(sc trace.SpanContext) *netlog.Txn {
	if cp.opts.NetLog != nil {
		tx := cp.opts.NetLog.BeginTraced(sc)
		cp.opts.NetLog.SetActive(tx)
		return tx
	}
	if cp.opts.DelayBuffer != nil {
		cp.opts.DelayBuffer.BeginHold()
	}
	return nil
}

// endTxn commits or rolls back a transaction, leaving the window held.
func (cp *CrashPad) endTxn(tx *netlog.Txn, commit bool) {
	switch {
	case tx != nil && commit:
		cp.opts.NetLog.SetActive(nil)
		_ = tx.Commit()
	case tx != nil:
		cp.opts.NetLog.SetActive(nil)
		_ = tx.Abort()
	case cp.opts.DelayBuffer != nil && commit:
		_ = cp.opts.DelayBuffer.Flush()
	case cp.opts.DelayBuffer != nil:
		cp.opts.DelayBuffer.Discard()
	}
}

// stackTrace captures the current goroutine's stack for in-process
// crash evidence.
func stackTrace() []byte {
	buf := make([]byte, 16<<10)
	n := runtimeStack(buf, false)
	return buf[:n]
}
