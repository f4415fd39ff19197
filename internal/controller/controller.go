package controller

import (
	"context"
	"errors"
	"log/slog"
	"net"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"legosdn/internal/flightrec"
	"legosdn/internal/metrics"
	"legosdn/internal/openflow"
	"legosdn/internal/trace"
)

// Config tunes a Controller. The zero value is a usable monolithic
// controller.
type Config struct {
	// Monolithic selects the fate-sharing baseline: app panics unwind
	// into the dispatch loop and crash the controller. When false the
	// Runner (or a recovering default) isolates failures.
	Monolithic bool
	// Parallel enables the per-app worker pipeline: every registered app
	// gets its own ordered queue and goroutine, so independent apps
	// process events concurrently while each app still observes events
	// in controller order (the per-app FIFO that Crash-Pad's
	// checkpoint/replay semantics depend on). Apps implementing
	// InlineObserver still run on the dispatch goroutine itself, before
	// fan-out. Incompatible with Monolithic (fate sharing needs the
	// app's panic on the dispatch goroutine); Monolithic wins.
	Parallel bool
	// AppQueueSize bounds each app's worker queue in Parallel mode
	// (default 256). A full queue applies backpressure to the dispatch
	// loop rather than dropping events, preserving per-app FIFO.
	AppQueueSize int
	// BatchMax caps how many queued events a parallel worker drains into
	// one BatchApp delivery (default 32; 1 disables batching).
	BatchMax int
	// Runner executes app handlers. nil selects the direct call in
	// monolithic mode, or a recover-only runner otherwise.
	Runner AppRunner
	// OnAppFailure observes unrecovered app crashes in non-monolithic
	// mode (after the app has been quarantined). May be nil.
	OnAppFailure func(*AppFailure)
	// QueueSize bounds the pending event queue (default 1024).
	QueueSize int
	// RequestTimeout bounds synchronous exchanges (default 5s).
	RequestTimeout time.Duration
	// EchoInterval spaces liveness probes to each switch; a probe that
	// goes unanswered within the interval closes the connection and
	// surfaces a SwitchDown. Zero disables probing (the default: tests
	// and pipes have no silent-failure mode).
	EchoInterval time.Duration
	// Metrics, when set, registers the controller's instruments
	// (dispatch latency, per-switch send latency, event counters) into
	// the given registry. Nil leaves the latency histograms off.
	Metrics *metrics.Registry
	// Logger, when set, receives structured diagnostics; log lines for
	// traced events carry the trace id (wrap with trace.WrapHandler).
	// Logf remains the plain-text fallback.
	Logger *slog.Logger
	// Flight is the always-on flight recorder: every dispatched event
	// leaves one bounded record, so a crash autopsy can show the events
	// leading up to the failure even when tracing sampled them out. It
	// also samples injected events into traces and records dispatch and
	// per-app delivery spans. Nil no-ops.
	Flight *flightrec.Recorder
	// Logf receives diagnostic output; nil silences it.
	Logf func(format string, args ...any)
}

// ErrCrashed is returned by controller operations after a monolithic
// crash has taken the control plane down.
var ErrCrashed = errors.New("controller: crashed")

// ErrNoSwitch is returned when a message targets an unknown datapath.
var ErrNoSwitch = errors.New("controller: no such switch")

// OutboundHook observes and may rewrite or suppress controller-to-
// switch messages. Returning (nil, nil) suppresses the message;
// returning an error aborts the send. NetLog installs itself here.
type OutboundHook func(dpid uint64, msg openflow.Message) (openflow.Message, error)

// appEntry tracks one registered app and its dispatch state. The
// dispatch-path fields (disabled, events, failures) are atomic so the
// dispatch goroutine and workers never race with quarantine flips done
// under c.mu; subs is immutable after Register.
type appEntry struct {
	app      App
	subs     map[EventKind]bool
	inline   bool // InlineObserver: runs on the dispatch goroutine
	disabled atomic.Bool
	events   atomic.Uint64 // events delivered
	failures atomic.Uint64

	// queue and its worker exist only in Parallel mode.
	queue chan queuedEvent
}

// queuedEvent pairs an event with its (optional) fan-out tracker.
type queuedEvent struct {
	ev Event
	tr *evTracker
}

// evTracker observes the completion of one event's fan-out across all
// subscribed apps, so the dispatch-latency histogram keeps its
// "end-to-end across all apps" meaning under parallel dispatch. The
// last worker to finish records the latency and closes the event's
// dispatch span, if it has one.
type evTracker struct {
	c         *Controller
	start     time.Time
	span      *flightrec.Span // "controller.dispatch"; nil when untraced
	remaining atomic.Int32
}

func (t *evTracker) done() {
	if t != nil && t.remaining.Add(-1) == 0 {
		t.c.dispatchLatency.ObserveSince(t.start)
		t.span.End()
	}
}

// Controller is the FloodLight-like control plane core.
type Controller struct {
	cfg    Config
	runner AppRunner

	mu             sync.Mutex
	apps           []*appEntry
	switches       map[uint64]*swHandle
	lastPorts      map[uint64][]openflow.PhyPort // ports of departed switches
	links          map[LinkInfo]struct{}
	hooks          []OutboundHook
	statsRewriters []StatsRewriter

	seq     atomic.Uint64
	events  chan Event
	stopped chan struct{}
	crashed atomic.Bool
	wg      sync.WaitGroup

	// Dispatched counts events delivered to at least one app.
	Dispatched metrics.Counter
	// Processed counts every event the dispatch loop consumed, whether
	// or not any app subscribed to it.
	Processed metrics.Counter

	// dispatchLatency times dispatchOne end to end (the paper's
	// event-processing latency); sendLatency times each wire write.
	// batchSize distributes how many events each parallel worker
	// drained per delivery — the amortization the batched AppVisor path
	// depends on. Nil (no Config.Metrics) means unobserved.
	dispatchLatency *metrics.Histogram
	sendLatency     *metrics.Histogram
	batchSize       *metrics.Histogram
}

// BatchSizeBuckets are the histogram bounds for per-delivery batch
// sizes (counts, not seconds).
var BatchSizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// recoveringRunner is the default isolated runner: panics become
// AppFailures but no recovery is attempted (the app stays quarantined).
type recoveringRunner struct{}

func (recoveringRunner) RunEvent(app App, ctx Context, ev Event) (failure *AppFailure) {
	defer func() {
		if r := recover(); r != nil {
			failure = &AppFailure{App: app.Name(), Event: ev, PanicValue: r, Stack: debug.Stack()}
		}
	}()
	_ = app.HandleEvent(ctx, ev)
	return nil
}

// RunEventBatch implements BatchRunner: a BatchApp gets one call for
// the whole run; otherwise events are delivered one at a time, stopping
// at the first failure (the app is about to be quarantined, so the rest
// of the batch would be skipped anyway).
func (r recoveringRunner) RunEventBatch(app App, ctx Context, evs []Event) (failure *AppFailure) {
	if ba, ok := app.(BatchApp); ok {
		cur := evs[0]
		defer func() {
			if rec := recover(); rec != nil {
				failure = &AppFailure{App: app.Name(), Event: cur, PanicValue: rec, Stack: debug.Stack()}
			}
		}()
		_ = ba.HandleEventBatch(ctx, evs)
		return nil
	}
	for _, ev := range evs {
		if f := r.RunEvent(app, ctx, ev); f != nil {
			return f
		}
	}
	return nil
}

// New creates a controller and starts its dispatch loop.
func New(cfg Config) *Controller {
	if cfg.QueueSize <= 0 {
		cfg.QueueSize = 1024
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 5 * time.Second
	}
	if cfg.AppQueueSize <= 0 {
		cfg.AppQueueSize = 256
	}
	if cfg.BatchMax <= 0 {
		cfg.BatchMax = 32
	}
	if cfg.Monolithic {
		// Fate sharing requires the panic to unwind the dispatch loop.
		cfg.Parallel = false
	}
	c := &Controller{
		cfg:       cfg,
		switches:  make(map[uint64]*swHandle),
		lastPorts: make(map[uint64][]openflow.PhyPort),
		links:     make(map[LinkInfo]struct{}),
		events:    make(chan Event, cfg.QueueSize),
		stopped:   make(chan struct{}),
	}
	switch {
	case cfg.Runner != nil:
		c.runner = cfg.Runner
	case cfg.Monolithic:
		c.runner = directRunner{}
	default:
		c.runner = recoveringRunner{}
	}
	if reg := cfg.Metrics; reg != nil {
		reg.RegisterCounter("legosdn_controller_events_dispatched_total",
			"events delivered to at least one app", &c.Dispatched)
		reg.RegisterCounter("legosdn_controller_events_processed_total",
			"events consumed by the dispatch loop", &c.Processed)
		c.dispatchLatency = reg.Histogram("legosdn_controller_event_dispatch_seconds",
			"end-to-end dispatch latency of one event across all subscribed apps", nil)
		c.sendLatency = reg.Histogram("legosdn_controller_send_seconds",
			"per-switch send latency of one outbound message (wire write)", nil)
		c.batchSize = reg.Histogram("legosdn_controller_batch_size_events",
			"events drained per parallel-worker delivery", BatchSizeBuckets)
	}
	c.wg.Add(1)
	go c.dispatchLoop()
	return c
}

func (c *Controller) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// SetRunner swaps the app runner. Benchmarks use this to compare
// architectures over one controller; production code sets Config.Runner.
func (c *Controller) SetRunner(r AppRunner) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.runner = r
}

// Register adds an app to the end of the dispatch chain. In Parallel
// mode the app's worker starts immediately unless the controller has
// already stopped.
func (c *Controller) Register(app App) {
	subs := make(map[EventKind]bool)
	for _, k := range app.Subscriptions() {
		subs[k] = true
	}
	e := &appEntry{app: app, subs: subs}
	if _, ok := app.(InlineObserver); ok {
		e.inline = true
	}
	if c.cfg.Parallel && !e.inline {
		e.queue = make(chan queuedEvent, c.cfg.AppQueueSize)
	}
	c.mu.Lock()
	c.apps = append(c.apps, e)
	c.mu.Unlock()
	if e.queue != nil {
		select {
		case <-c.stopped:
			return
		default:
		}
		c.wg.Add(1)
		go c.appWorker(e)
	}
}

// Apps lists registered app names in dispatch order.
func (c *Controller) Apps() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, len(c.apps))
	for i, e := range c.apps {
		out[i] = e.app.Name()
	}
	return out
}

// AppDisabled reports whether the named app has been quarantined.
func (c *Controller) AppDisabled(name string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.apps {
		if e.app.Name() == name {
			return e.disabled.Load()
		}
	}
	return false
}

// SetAppDisabled quarantines or revives an app. The flag is atomic, so
// the dispatch path observes it without taking c.mu.
func (c *Controller) SetAppDisabled(name string, disabled bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.apps {
		if e.app.Name() == name {
			e.disabled.Store(disabled)
		}
	}
}

// AddOutboundHook appends a hook to the outbound message path.
func (c *Controller) AddOutboundHook(h OutboundHook) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.hooks = append(c.hooks, h)
}

// StatsRewriter adjusts a StatsReply before it reaches the requesting
// app. NetLog's counter-cache registers one to mask rollback artifacts
// in flow counters, as §3.2 of the paper describes.
type StatsRewriter func(dpid uint64, reply *openflow.StatsReply)

// AddStatsRewriter appends a rewriter to the stats reply path.
func (c *Controller) AddStatsRewriter(rw StatsRewriter) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.statsRewriters = append(c.statsRewriters, rw)
}

// Crashed reports whether a monolithic fate-sharing crash occurred.
func (c *Controller) Crashed() bool { return c.crashed.Load() }

// Stop shuts the controller down, closing all switch channels. Safe to
// call more than once.
func (c *Controller) Stop() {
	select {
	case <-c.stopped:
		return
	default:
	}
	close(c.stopped)
	c.mu.Lock()
	handles := make([]*swHandle, 0, len(c.switches))
	for _, h := range c.switches {
		handles = append(handles, h)
	}
	c.mu.Unlock()
	for _, h := range handles {
		h.close()
	}
	c.wg.Wait()
}

// crash simulates process death after a monolithic app failure: every
// switch connection closes and no further events are processed.
func (c *Controller) crash(reason any) {
	if !c.crashed.CompareAndSwap(false, true) {
		return
	}
	c.logf("controller: FATAL app failure, control plane down: %v", reason)
	c.mu.Lock()
	handles := make([]*swHandle, 0, len(c.switches))
	for _, h := range c.switches {
		handles = append(handles, h)
	}
	c.mu.Unlock()
	for _, h := range handles {
		h.close()
	}
}

// dispatchLoop is the single goroutine that consumes the event queue.
// In serial mode it delivers to apps in registration order, preserving
// the per-controller total order of message processing that replay
// depends on; in Parallel mode it fans events out to per-app worker
// queues, which weakens the guarantee to per-app FIFO (still enough
// for Crash-Pad checkpoint/replay, which is per-app).
func (c *Controller) dispatchLoop() {
	defer c.wg.Done()
	for {
		select {
		case <-c.stopped:
			return
		case ev := <-c.events:
			if c.crashed.Load() {
				continue
			}
			c.dispatchOne(ev)
		}
	}
}

func (c *Controller) dispatchOne(ev Event) {
	c.cfg.Flight.Record(flightrec.Record{
		Layer: flightrec.LayerController, Kind: flightrec.KindEventDispatched,
		Trace: ev.Trace.TraceID, EvSeq: ev.Seq, DPID: ev.DPID,
		Note: ev.Kind.String(),
	})
	if c.cfg.Parallel {
		c.fanOut(ev)
		return
	}
	if sp := c.startDispatchSpan(ev); sp != nil {
		ev.Trace.SpanID = sp.Context().SpanID
		defer sp.End()
	}
	if c.dispatchLatency != nil {
		defer c.dispatchLatency.ObserveSince(time.Now())
	}
	if c.cfg.Monolithic {
		defer func() {
			if r := recover(); r != nil {
				// Fate sharing: the app's panic is the controller's panic.
				c.crash(r)
			}
		}()
	}
	entries, runner := c.snapshotApps()

	delivered := false
	for _, e := range entries {
		if e.disabled.Load() || !e.subs[ev.Kind] {
			continue
		}
		delivered = true
		c.deliver(e, runner, ev)
	}
	if delivered {
		c.Dispatched.Add(1)
	}
	c.Processed.Add(1)
}

// snapshotApps copies the dispatch chain and runner under c.mu, so the
// loop below runs lock-free against concurrent Register/SetRunner.
func (c *Controller) snapshotApps() ([]*appEntry, AppRunner) {
	c.mu.Lock()
	entries := make([]*appEntry, len(c.apps))
	copy(entries, c.apps)
	runner := c.runner
	c.mu.Unlock()
	return entries, runner
}

// startDispatchSpan opens the "controller.dispatch" span for a traced
// event, annotated with what the event is. Nil for untraced events.
func (c *Controller) startDispatchSpan(ev Event) *flightrec.Span {
	sp := c.cfg.Flight.StartSpan(ev.Trace, "controller.dispatch")
	if sp != nil {
		sp.Attr("kind", ev.Kind.String()).
			AttrInt("dpid", int64(ev.DPID)).
			AttrInt("seq", int64(ev.Seq))
	}
	return sp
}

// deliver runs one event through one app and quarantines it on failure.
// Called from the dispatch goroutine (serial mode, inline observers)
// and from app workers (parallel mode); everything it touches is atomic
// or taken under c.mu. ev is a copy, so re-parenting its trace context
// under the per-app delivery span is private to this delivery.
func (c *Controller) deliver(e *appEntry, runner AppRunner, ev Event) {
	e.events.Add(1)
	if sp := c.cfg.Flight.StartSpan(ev.Trace, "controller.deliver"); sp != nil {
		sp.Attr("app", e.app.Name())
		ev.Trace.SpanID = sp.Context().SpanID
		defer sp.End()
	}
	if failure := runner.RunEvent(e.app, c, ev); failure != nil {
		c.quarantine(e, failure, ev)
	}
}

// quarantine marks an app disabled after an unrecovered failure and
// fires the OnAppFailure hook. Safe from any goroutine; the atomic flag
// makes the disable visible to all dispatch paths immediately, so a
// parallel worker draining its queue skips the app's remaining events.
func (c *Controller) quarantine(e *appEntry, failure *AppFailure, ev Event) {
	e.failures.Add(1)
	e.disabled.Store(true)
	c.cfg.Flight.Record(flightrec.Record{
		Layer: flightrec.LayerController, Kind: flightrec.KindQuarantine,
		App: failure.App, Trace: ev.Trace.TraceID, EvSeq: ev.Seq, DPID: ev.DPID,
		Note: "quarantined after " + ev.Kind.String(),
	})
	if lg := c.cfg.Logger; lg != nil {
		lctx := trace.ContextWith(context.Background(), ev.Trace)
		lctx = trace.ContextWithCrash(lctx, failure.App, 0)
		lg.LogAttrs(lctx, slog.LevelWarn,
			"app quarantined after crash",
			slog.String("event", ev.String()))
	}
	c.logf("controller: app %q quarantined after crash on %v", failure.App, ev)
	if cb := c.cfg.OnAppFailure; cb != nil {
		cb(failure)
	}
}

// fanOut distributes one event to every subscribed app's worker queue,
// running inline observers first on this goroutine (NetLog depends on
// observing events before any reacting app). Enqueueing blocks when a
// queue is full — backpressure instead of event loss, because dropping
// would break the per-app FIFO that replay depends on.
func (c *Controller) fanOut(ev Event) {
	entries, runner := c.snapshotApps()

	var tr *evTracker
	sp := c.startDispatchSpan(ev)
	if c.dispatchLatency != nil || sp != nil {
		n := int32(0)
		for _, e := range entries {
			if !e.disabled.Load() && e.subs[ev.Kind] {
				n++
			}
		}
		if n > 0 {
			tr = &evTracker{c: c, start: time.Now(), span: sp}
			tr.remaining.Store(n)
		} else {
			sp.End()
			sp = nil
		}
	}
	if sp != nil {
		// Deliveries hang under the dispatch span; the last worker to
		// finish ends it via the tracker.
		ev.Trace.SpanID = sp.Context().SpanID
	}

	delivered := false
	for _, e := range entries {
		if e.disabled.Load() || !e.subs[ev.Kind] {
			tr.skip(e, ev)
			continue
		}
		delivered = true
		if e.queue == nil {
			// Inline observer (or an app registered before Parallel was
			// resolved): runs on the dispatch goroutine, in order.
			c.deliver(e, runner, ev)
			tr.done()
			continue
		}
		select {
		case e.queue <- queuedEvent{ev: ev, tr: tr}:
		case <-c.stopped:
			tr.done()
			return
		}
	}
	if delivered {
		c.Dispatched.Add(1)
	}
	c.Processed.Add(1)
}

// skip balances the tracker when an app counted during the sizing pass
// was disabled before its turn (quarantined mid-fan-out).
func (t *evTracker) skip(e *appEntry, ev Event) {
	// Only relevant when a tracker exists and the app flipped to
	// disabled between the two passes; the subs check is deterministic.
	if t != nil && e.disabled.Load() && e.subs[ev.Kind] {
		t.done()
	}
}

// appWorker drains one app's queue in FIFO order. Consecutive queued
// events are coalesced into one BatchApp delivery when both the runner
// and the app support it, amortizing per-event overhead (AppVisor's
// per-event UDP round trip, Crash-Pad's per-event bookkeeping).
func (c *Controller) appWorker(e *appEntry) {
	defer c.wg.Done()
	var batch []queuedEvent
	for {
		select {
		case <-c.stopped:
			return
		case qe := <-e.queue:
			batch = batch[:0]
			batch = append(batch, qe)
			// Opportunistic drain: whatever is already queued, up to
			// BatchMax, goes out in one delivery.
			for len(batch) < c.cfg.BatchMax {
				select {
				case next := <-e.queue:
					batch = append(batch, next)
				default:
					goto drained
				}
			}
		drained:
			c.deliverBatch(e, batch)
		}
	}
}

// deliverBatch hands a drained run of events to the app, preferring one
// batched call when supported, falling back to per-event delivery.
func (c *Controller) deliverBatch(e *appEntry, batch []queuedEvent) {
	c.mu.Lock()
	runner := c.runner
	c.mu.Unlock()
	c.batchSize.Observe(float64(len(batch)))

	br, runnerOK := runner.(BatchRunner)
	_, appOK := e.app.(BatchApp)
	if len(batch) > 1 && runnerOK && appOK && !e.disabled.Load() {
		evs := make([]Event, len(batch))
		var spans []*flightrec.Span
		for i, qe := range batch {
			evs[i] = qe.ev
			if sp := c.cfg.Flight.StartSpan(qe.ev.Trace, "controller.deliver"); sp != nil {
				sp.Attr("app", e.app.Name()).AttrInt("batch", int64(len(batch)))
				evs[i].Trace.SpanID = sp.Context().SpanID
				spans = append(spans, sp)
			}
		}
		e.events.Add(uint64(len(evs)))
		if failure := br.RunEventBatch(e.app, c, evs); failure != nil {
			c.quarantine(e, failure, failure.Event)
		}
		for _, sp := range spans {
			sp.End()
		}
		for _, qe := range batch {
			qe.tr.done()
		}
		return
	}
	for _, qe := range batch {
		if !e.disabled.Load() {
			c.deliver(e, runner, qe.ev)
		}
		qe.tr.done()
	}
}

// Inject queues an event as if it arrived from the network. The
// workload generators and Crash-Pad's replay path use this.
func (c *Controller) Inject(ev Event) error {
	if c.crashed.Load() {
		return ErrCrashed
	}
	if ev.Seq == 0 {
		ev.Seq = c.seq.Add(1)
	}
	if !ev.Trace.Valid() {
		// The sampling decision for the whole pipeline happens here,
		// once per event. Replayed events keep their original trace.
		ev.Trace = c.cfg.Flight.Root()
	}
	select {
	case c.events <- ev:
		return nil
	case <-c.stopped:
		return ErrCrashed
	}
}

// InjectSync dispatches an event inline on the caller's goroutine,
// bypassing the queue. It preserves ordering only if the caller owns
// the event source; benchmarks use it to measure the bare dispatch path.
func (c *Controller) InjectSync(ev Event) error {
	if c.crashed.Load() {
		return ErrCrashed
	}
	if ev.Seq == 0 {
		ev.Seq = c.seq.Add(1)
	}
	if !ev.Trace.Valid() {
		ev.Trace = c.cfg.Flight.Root()
	}
	c.dispatchOne(ev)
	return nil
}

// AppStats reports (delivered, failures) for a named app.
func (c *Controller) AppStats(name string) (events, failures uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.apps {
		if e.app.Name() == name {
			return e.events.Load(), e.failures.Load()
		}
	}
	return 0, 0
}

// Switches implements Context.
func (c *Controller) Switches() []uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]uint64, 0, len(c.switches))
	for d := range c.switches {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Ports implements Context. For a departed switch it returns the
// last-known port set, which Crash-Pad's switch-down → link-downs
// equivalence transform needs after the handle is gone.
func (c *Controller) Ports(dpid uint64) []openflow.PhyPort {
	c.mu.Lock()
	h := c.switches[dpid]
	if h == nil {
		last := append([]openflow.PhyPort(nil), c.lastPorts[dpid]...)
		c.mu.Unlock()
		return last
	}
	c.mu.Unlock()
	return h.portList()
}

// Topology implements Context.
func (c *Controller) Topology() []LinkInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]LinkInfo, 0, len(c.links))
	for l := range c.links {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.SrcDPID != b.SrcDPID {
			return a.SrcDPID < b.SrcDPID
		}
		if a.SrcPort != b.SrcPort {
			return a.SrcPort < b.SrcPort
		}
		return a.DstDPID < b.DstDPID
	})
	return out
}

// Serve accepts switch connections from l until the controller stops.
func (c *Controller) Serve(l net.Listener) {
	go func() {
		<-c.stopped
		l.Close()
	}()
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		if err := c.AttachSwitchConn(openflow.NewConn(conn)); err != nil {
			c.logf("controller: attach failed: %v", err)
			conn.Close()
		}
	}
}
