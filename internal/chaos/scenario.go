package chaos

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"legosdn/internal/controller"
	"legosdn/internal/core"
	"legosdn/internal/crashpad"
	"legosdn/internal/flightrec"
	"legosdn/internal/metrics"
	"legosdn/internal/netsim"
	"legosdn/internal/openflow"
)

// Scenario describes one chaos experiment: a stack shape, a workload
// and the fault probabilities active while it runs. Run drives the
// full LegoSDN stack (controller + AppVisor + NetLog + Crash-Pad)
// through the workload under a seeded Schedule and then checks the
// paper's system-level invariants.
type Scenario struct {
	Name        string
	Description string

	// Switches sizes the topology: 1 uses Single (one switch, two
	// hosts), >1 uses Linear. Default 1.
	Switches int
	// Apps is the number of recorder apps (default 2).
	Apps int
	// Events is the PacketIn workload length (default 40).
	Events int
	// CheckpointEvery is Crash-Pad's cadence (default 4).
	CheckpointEvery int
	// EventTimeout bounds one proxied event round trip (default 250ms;
	// it is also the chaos clock: a dropped datagram costs one of these).
	EventTimeout time.Duration
	// Parallel runs the controller's per-app worker pipeline and BatchMax
	// caps how many queued events a worker coalesces into one delivery
	// (the core.Config fields of the same names). A parallel run injects
	// its workload back to back, so deliveries batch and app workers
	// draw from the schedule concurrently: it cannot be Deterministic.
	Parallel bool
	BatchMax int

	// Wire enables AppVisor datagram faults on every app's proxy.
	Wire WireFaultProbs
	// KillProb kills a schedule-picked stub between workload events.
	KillProb float64
	// CrashEvery arms a one-shot panic in app 0 at every k-th delivery
	// (0 disables) — the §2.1 transient-bug population.
	CrashEvery int
	// InverseFailProb fails inverse ops during NetLog rollback.
	InverseFailProb float64
	// DisconnectProb severs the target switch mid-rollback.
	DisconnectProb float64
	// FlapProb bounces a schedule-picked inter-switch link between
	// workload events (Linear topologies only).
	FlapProb float64
	// PartitionAt, when > 0, bisects the fabric at that workload index
	// and heals it five events later.
	PartitionAt int
	// LossBurst appends a data-plane phase: host traffic over links at
	// 30% loss, whose table misses become PacketIns for the apps.
	LossBurst bool

	// Deterministic marks the scenario safe for byte-for-byte replay
	// comparison: the workload runs in lockstep (inject, wait, repeat)
	// and every fault lands between events, so the same seed reproduces
	// the same fault schedule and the same report.
	Deterministic bool
	// SkipShadowCheck disables the shadow-vs-switch comparison for
	// scenarios that deliberately leave rollback residue
	// (inverse-fail faults desynchronize shadow and switch by design).
	SkipShadowCheck bool
	// AutopsyDir, when set, persists every autopsy the stack writes
	// during the run (crash recoveries plus the synthesized
	// invariant-violation autopsy on failure) as JSON files there.
	AutopsyDir string
	// AllowQuarantine drops the recovered/<app> invariant for scenarios
	// hostile enough that Crash-Pad may legitimately exhaust its
	// recovery attempts (e.g. a scheduled crash landing inside a replay
	// window that a kill already disturbed). Quarantining the app while
	// the controller and every other invariant hold IS the correct
	// containment outcome there.
	AllowQuarantine bool

	// Custom, when set, replaces the stock single-stack run entirely:
	// scenarios whose shape the standard loop cannot express (e.g. the
	// durable-recovery scenario, which kills and restarts the whole
	// controller) implement Run themselves. The function receives the
	// scenario with defaults applied and must honor the Deterministic
	// contract if the scenario declares it.
	Custom func(sc Scenario, seed uint64, reg *metrics.Registry) *Report
}

// InvariantResult is one post-run check.
type InvariantResult struct {
	Name string
	Err  error // nil = held
}

// Report is a scenario run's outcome. Render is deterministic text for
// same-seed byte comparison; ScheduleFingerprint is the full decision
// log (one line per draw).
type Report struct {
	Scenario            string
	Seed                uint64
	EventsInjected      int
	Fired               map[string]int
	Invariants          []InvariantResult
	ScheduleFingerprint string
	// Autopsies carries every autopsy report the stack assembled during
	// the run — the Crash-Pad ones for each recovery plus, when an
	// invariant failed, a synthesized chaos-invariant autopsy capturing
	// the flight-recorder tail. Deliberately NOT part of Render():
	// autopsies carry wall-clock durations, and Render must stay
	// byte-for-byte reproducible from the seed.
	Autopsies []*flightrec.Autopsy
}

// Failed reports whether any invariant was violated.
func (r *Report) Failed() bool {
	for _, iv := range r.Invariants {
		if iv.Err != nil {
			return true
		}
	}
	return false
}

// Render produces the canonical report text (no timestamps, no
// durations — only run state that must reproduce from the seed).
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario=%s seed=%d events=%d\n", r.Scenario, r.Seed, r.EventsInjected)
	points := make([]string, 0, len(r.Fired))
	for p := range r.Fired {
		points = append(points, p)
	}
	sort.Strings(points)
	for _, p := range points {
		fmt.Fprintf(&b, "fired %s=%d\n", p, r.Fired[p])
	}
	for _, iv := range r.Invariants {
		if iv.Err != nil {
			fmt.Fprintf(&b, "invariant %s: FAIL: %v\n", iv.Name, iv.Err)
		} else {
			fmt.Fprintf(&b, "invariant %s: ok\n", iv.Name)
		}
	}
	return b.String()
}

func (sc Scenario) withDefaults() Scenario {
	if sc.Switches < 1 {
		sc.Switches = 1
	}
	if sc.Apps < 1 {
		sc.Apps = 2
	}
	if sc.Events < 1 {
		sc.Events = 40
	}
	if sc.CheckpointEvery < 1 {
		sc.CheckpointEvery = 4
	}
	if sc.EventTimeout <= 0 {
		sc.EventTimeout = 250 * time.Millisecond
	}
	return sc
}

// Run executes the scenario under the given seed. reg may be nil; when
// set, chaos fault activations are exported through it alongside the
// stack's own metrics.
func (sc Scenario) Run(seed uint64, reg *metrics.Registry) *Report {
	return sc.RunSchedule(NewSchedule(seed), reg)
}

// RunSchedule executes the scenario drawing from the caller's schedule,
// so the caller keeps access to the full decision log afterwards and
// can substitute a pinned schedule (NewPinnedSchedule) that replays a
// recorded — possibly minimized — fault sequence instead of drawing
// probabilistically. Custom scenarios manage their own schedules and
// do not support pinned replay.
func (sc Scenario) RunSchedule(sched *Schedule, reg *metrics.Registry) *Report {
	sc = sc.withDefaults()
	seed := sched.Seed()
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	if sc.Custom != nil {
		return sc.Custom(sc, seed, reg)
	}
	inj := NewInjector(sched, reg)

	var n *netsim.Network
	if sc.Switches > 1 {
		n = netsim.Linear(sc.Switches, nil)
	} else {
		n = netsim.Single(2, nil)
	}
	n.SetLossSeed(int64(seed))

	stack := core.NewStack(core.Config{
		Mode:             core.ModeLegoSDN,
		CheckpointEvery:  sc.CheckpointEvery,
		EventTimeout:     sc.EventTimeout,
		HeartbeatTimeout: -1, // crash detection via event timeout only: deterministic
		Metrics:          reg,
		AutopsyDir:       sc.AutopsyDir,
		Parallel:         sc.Parallel,
		BatchMax:         sc.BatchMax,
	})
	defer stack.Close()
	// A parallel run waits for the app workers, not the dispatch loop,
	// before it judges the invariants.
	var done *doneCounter
	if sc.Parallel {
		done = &doneCounter{CrashPad: stack.CrashPad}
		stack.Controller.SetRunner(done)
	}

	log := NewEventLog()
	appNames := make([]string, sc.Apps)
	for i := 0; i < sc.Apps; i++ {
		name := fmt.Sprintf("rec%d", i)
		appNames[i] = name
		if err := stack.AddApp(func() controller.App { return newRecorder(name, log) }); err != nil {
			return failedReport(sc, sched, inj, 0, fmt.Errorf("adding app %s: %w", name, err))
		}
	}
	if sc.CrashEvery > 0 {
		for nth := sc.CrashEvery; nth <= sc.Events*2; nth += sc.CrashEvery {
			log.CrashOnNth(appNames[0], nth)
		}
	}
	if sc.Wire.any() {
		wf := inj.WireFault(sc.Wire)
		for _, name := range appNames {
			stack.Proxy(name).SetWireFault(wf)
		}
	}
	if sc.InverseFailProb > 0 || sc.DisconnectProb > 0 {
		stack.NetLog.SetSendFault(inj.NetLogFault(n, sc.InverseFailProb, sc.DisconnectProb))
	}

	if err := stack.ConnectNetwork(n); err != nil {
		return failedReport(sc, sched, inj, 0, fmt.Errorf("connecting network: %w", err))
	}

	ctrl := stack.Controller
	dpids := make([]uint64, 0, sc.Switches)
	for _, sw := range n.Switches() {
		dpids = append(dpids, sw.DPID)
	}
	sort.Slice(dpids, func(i, j int) bool { return dpids[i] < dpids[j] })

	inject := func(i int) error {
		return ctrl.Inject(controller.Event{
			Kind: controller.EventPacketIn,
			DPID: dpids[(i-1)%len(dpids)],
			Message: &openflow.PacketIn{
				BufferID: openflow.BufferIDNone,
				InPort:   hostPort,
				Reason:   openflow.PacketInReasonNoMatch,
			},
		})
	}
	partitioned := false
	injected := 0
	for i := 1; i <= sc.Events; i++ {
		// Faults land between events: the previous event has fully
		// dispatched (lockstep below), so which event a fault hits is a
		// pure function of the schedule.
		if inj.Fire(PointKill, sc.KillProb) {
			victim := appNames[sched.Pick(PointKill+"/pick", len(appNames))]
			stack.Proxy(victim).KillStub()
		}
		if sc.Switches > 1 && inj.Fire(PointFlap, sc.FlapProb) {
			left := dpids[sched.Pick(PointFlap+"/pick", len(dpids)-1)]
			// Linear convention: port 2 faces right, port 1 faces left.
			_ = n.SetLinkDown(left, 2, left+1, 1, true)
			_ = n.SetLinkDown(left, 2, left+1, 1, false)
		}
		if sc.PartitionAt > 0 && sc.Switches > 1 {
			if i == sc.PartitionAt {
				inj.note(PointPartition)
				n.SetPartition(dpids[:len(dpids)/2], true)
				partitioned = true
			} else if partitioned && i == sc.PartitionAt+5 {
				n.SetPartition(dpids[:len(dpids)/2], false)
				partitioned = false
			}
		}

		target := ctrl.Processed.Load() + 1
		if err := inject(i); err != nil {
			return failedReport(sc, sched, inj, injected, fmt.Errorf("inject %d: %w", i, err))
		}
		injected++
		if sc.Parallel {
			continue // back to back, so the app workers batch
		}
		// Lockstep: wait for the event to dispatch (including any
		// synchronous Crash-Pad recovery it triggered) before deciding
		// the next fault. Recovery of a timed-out event can itself take
		// EventTimeout per retried delivery, so the deadline is generous.
		waitProcessed(ctrl, target, 30*time.Second)
	}
	if done != nil {
		done.wait(int64(injected*sc.Apps), 5*time.Second)
		// A crash reported with no delivery in flight (the second run of
		// a duplicated batch, say) is acted on at the app's next
		// delivery, as for a killed stub. A short tail of events gives
		// every such app that delivery before the invariants are judged.
		for tail := 0; tail < 3 && anyStubDown(stack, appNames); tail++ {
			if err := inject(sc.Events + tail + 1); err != nil {
				return failedReport(sc, sched, inj, injected, fmt.Errorf("inject tail: %w", err))
			}
			injected++
			done.wait(int64(injected*sc.Apps), 5*time.Second)
		}
	}
	if partitioned {
		n.SetPartition(dpids[:len(dpids)/2], false)
	}

	if sc.LossBurst {
		n.SetAllLinkProfiles(0, 0.3)
		h1, h2 := n.Host("h1"), n.Host("h2")
		if h1 != nil && h2 != nil {
			for i := 0; i < 20; i++ {
				_ = n.SendFromHost("h1", netsim.TCPFrame(h1, h2, 4000, 9000+uint16(i), nil))
			}
		}
		n.SetAllLinkProfiles(0, 0)
	}

	quiesce(ctrl)

	// A scenario that severed switches mid-rollback reconnects them, so
	// the recovery invariants are judged after repair — the paper's
	// switch-reconnect path (NetLog resyncs shadow state on SwitchUp).
	for dpid := range inj.severedDPIDs() {
		_ = n.SetSwitchDown(dpid, false)
		ctrlSide, swSide := openflow.Pipe()
		if sw := n.Switch(dpid); sw != nil {
			if err := sw.Attach(swSide); err == nil {
				_ = ctrl.AttachSwitchConn(ctrlSide)
			}
		}
	}
	quiesce(ctrl)

	rep := &Report{
		Scenario:       sc.Name,
		Seed:           seed,
		EventsInjected: injected,
		Fired:          inj.FiredCounts(),
	}
	if cf := log.CrashesFired(); cf > 0 {
		rep.Fired["app/panic"] = cf
	}
	rep.Invariants = sc.checkInvariants(stack, n, log, appNames, dpids)
	rep.ScheduleFingerprint = sched.Fingerprint()
	attachAutopsies(rep, stack)
	return rep
}

// attachAutopsies copies the stack's autopsy reports onto the chaos
// report and, when an invariant failed, synthesizes one more autopsy
// pinning the violation to the flight recorder's tail — a chaos failure
// is a crash of the *model*, and it deserves the same forensics as a
// crash of an app.
func attachAutopsies(rep *Report, stack *core.Stack) {
	if stack == nil || stack.Autopsies == nil {
		return
	}
	rep.Autopsies = stack.Autopsies.All()
	if !rep.Failed() {
		return
	}
	var violations []string
	for _, iv := range rep.Invariants {
		if iv.Err != nil {
			violations = append(violations, fmt.Sprintf("%s: %v", iv.Name, iv.Err))
		}
	}
	a := &flightrec.Autopsy{
		App:        "chaos",
		Trigger:    "chaos-invariant",
		Class:      "invariant-violation",
		Culprit:    fmt.Sprintf("scenario %s seed %d", rep.Scenario, rep.Seed),
		Outcome:    "Failed",
		Violations: violations,
		Timeline:   (*flightrec.Timeline)(nil).Phases(),
		Records:    stack.Flight.Correlated("", 0, 0, 32),
	}
	stack.Autopsies.Add(a)
	rep.Autopsies = append(rep.Autopsies, a)
}

func failedReport(sc Scenario, sched *Schedule, inj *Injector, injected int, err error) *Report {
	return &Report{
		Scenario:            sc.Name,
		Seed:                sched.Seed(),
		EventsInjected:      injected,
		Fired:               inj.FiredCounts(),
		Invariants:          []InvariantResult{{Name: "setup", Err: err}},
		ScheduleFingerprint: sched.Fingerprint(),
	}
}

// waitProcessed blocks until the dispatch loop has consumed events up
// to target (or the deadline passes — slow progress is then caught by
// the invariant checks, not by a hang).
func waitProcessed(c *controller.Controller, target uint64, timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for c.Processed.Load() < target {
		if time.Now().After(deadline) {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// anyStubDown reports whether any app still in service has its stub
// down.
func anyStubDown(stack *core.Stack, appNames []string) bool {
	for _, name := range appNames {
		if !stack.Controller.AppDisabled(name) && !stack.Proxy(name).StubUp() {
			return true
		}
	}
	return false
}

// doneCounter is the runner of a parallel run: Crash-Pad, counting the
// PacketIns whose delivery has returned (recovery included).
type doneCounter struct {
	*crashpad.CrashPad
	n atomic.Int64
}

func (d *doneCounter) RunEvent(app controller.App, ctx controller.Context, ev controller.Event) *controller.AppFailure {
	defer d.count(ev)
	return d.CrashPad.RunEvent(app, ctx, ev)
}

func (d *doneCounter) RunEventBatch(app controller.App, ctx controller.Context, evs []controller.Event) *controller.AppFailure {
	defer func() {
		for _, ev := range evs {
			d.count(ev)
		}
	}()
	return d.CrashPad.RunEventBatch(app, ctx, evs)
}

func (d *doneCounter) count(ev controller.Event) {
	if ev.Kind == controller.EventPacketIn {
		d.n.Add(1)
	}
}

// wait blocks until n PacketIn deliveries have returned, or none has
// for stall (a quarantined app's queued events are skipped, never
// returned; the invariants then report it).
func (d *doneCounter) wait(n int64, stall time.Duration) {
	last, since := d.n.Load(), time.Now()
	for d.n.Load() < n && time.Since(since) < stall {
		time.Sleep(time.Millisecond)
		if now := d.n.Load(); now != last {
			last, since = now, time.Now()
		}
	}
}

// quiesce waits until the dispatch counter stops moving (async event
// sources — PortStatus from flaps, PacketIns from lossy host traffic —
// have drained).
func quiesce(c *controller.Controller) {
	last := c.Processed.Load()
	for settled := 0; settled < 3; {
		time.Sleep(25 * time.Millisecond)
		now := c.Processed.Load()
		if now == last {
			settled++
		} else {
			settled = 0
			last = now
		}
	}
}

func (sc Scenario) checkInvariants(stack *core.Stack, n *netsim.Network, log *EventLog, appNames []string, dpids []uint64) []InvariantResult {
	var out []InvariantResult
	add := func(name string, err error) { out = append(out, InvariantResult{Name: name, Err: err}) }

	// 1. Per-app FIFO delivery, replay- and duplicate-tolerant.
	for _, name := range appNames {
		delivered := log.Delivered(name)
		err := CheckFIFO(delivered)
		if err == nil {
			events := 0
			for _, d := range delivered {
				if !d.Restore {
					events++
				}
			}
			if events == 0 {
				err = fmt.Errorf("no events ever delivered")
			}
		}
		add("fifo/"+name, err)
	}

	// 2. No orphaned or partially-applied transactions. A straggler
	// data-plane event (a PortStatus from a final flap, say) can still be
	// mid-dispatch when quiescence is declared, so an open transaction
	// gets a grace window to finish before it counts as orphaned.
	nl := stack.NetLog
	var txnErr error
	for deadline := time.Now().Add(2 * time.Second); ; {
		txnErr = nil
		if tx := nl.Active(); tx != nil {
			txnErr = fmt.Errorf("transaction still open after quiescence")
		} else if begun, done := nl.BegunTxns.Load(), nl.CommittedTxns.Load()+nl.Rollbacks.Load(); begun != done {
			txnErr = fmt.Errorf("%d transactions begun but only %d committed or rolled back", begun, done)
		}
		if txnErr == nil || time.Now().After(deadline) {
			break
		}
		time.Sleep(25 * time.Millisecond)
	}
	add("txn-balance", txnErr)

	// 3. Shadow flow tables consistent with switch state.
	if !sc.SkipShadowCheck {
		var shadowErr error
		for _, dpid := range dpids {
			sw := n.Switch(dpid)
			if sw == nil {
				continue
			}
			if got, want := nl.ShadowFingerprint(dpid), sw.Table().Fingerprint(); got != want {
				shadowErr = fmt.Errorf("switch %d: shadow %q != switch %q", dpid, got, want)
				break
			}
		}
		add("shadow-consistency", shadowErr)
	}

	// 4. Every crashed app restored: stub up, app enabled, controller alive.
	if !sc.AllowQuarantine {
		for _, name := range appNames {
			var err error
			switch {
			case stack.Controller.AppDisabled(name):
				err = fmt.Errorf("app still disabled")
			case !stack.Proxy(name).StubUp():
				err = fmt.Errorf("stub still down")
			}
			add("recovered/"+name, err)
		}
	}
	var crashErr error
	if stack.Controller.Crashed() {
		crashErr = fmt.Errorf("controller crashed")
	}
	add("controller-alive", crashErr)

	// 5. No forwarding loops were ever created.
	var loopErr error
	if drops := n.TotalLoopDrops(); drops != 0 {
		loopErr = fmt.Errorf("%d frames dropped by loop protection", drops)
	}
	add("no-loops", loopErr)

	return out
}
