package main

import (
	"errors"
	"fmt"
	"time"

	"legosdn/internal/controller"
	"legosdn/internal/core"
	"legosdn/internal/netlog"
	"legosdn/internal/netsim"
	"legosdn/internal/replica"
)

// workloadSpec names a workload, says why it exists, and runs it.
type workloadSpec struct {
	name string
	why  string
	run  func(b *bench) error
}

var workloads = []workloadSpec{
	{"flow-setup",
		"NetLog shadow/undo, journal appends and commit barriers dominate: each event deletes the oldest of 256 resident flows and adds one; crashes roll back",
		runFlowSetup},
	{"monitor-crash",
		"snapshot RPC, 16 KiB delta checkpoints and crash restore dominate, on the parallel batching path, with no FlowMods; every 100th event crashes",
		runMonitorCrash},
	{"quorum-failover",
		"WAL shipping and the quorum wait dominate each event on a 3-replica cluster, and leader kills exercise the controller failover path",
		runQuorumFailover},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// Load shape per workload.
const (
	flowSwitches     = 8
	flowResident     = 256
	flowRate         = 150.0 // ev/s, open loop
	flowProbeCrashes = 10    // planted crashes closing each flow-setup round

	monitorSwitches   = 8
	monitorRate       = 750.0
	monitorCrashEvery = 100

	quorumSwitches = 4
	quorumResident = 64
	quorumRate     = 50.0
	quorumTTL      = 80 * time.Millisecond
	quorumCycleEvs = 200 // paced events per cluster lifetime
	quorumWindow   = 100 // paced events per latency window
	quorumKillAt   = 130 // the leader dies just before this event is due
)

// A single-node run alternates rounds of a saturated window and an
// open-loop window, so both see the same stretch of machine time, and
// reports medians over the rounds. Share of --seconds spent in each:
const (
	rounds     = 10
	satShare   = 0.4
	pacedShare = 0.5
)

// accum collects a run's measurements across rounds and clusters.
type accum struct {
	tput       []float64 // saturated windows, ev/s
	tputTraced []float64 // traced runs: the traced half of each window
	satEvents  int64
	satMallocs uint64
	p50, p90   []float64 // per open-loop window, ns
	lat        []float64 // every open-loop event: due → Crash-Pad return, ns
	lateness   []float64 // due → Inject, ns
	led        ledger
	failover   []float64 // KillLeader → first completion on the successor, ns
	promote    []float64 // KillLeader → WaitLeader returns, ns
	resume     []float64 // WaitLeader returns → first completion, ns
	mttr       []float64 // the cluster's own LastMTTR, ns
	failWork   []float64 // failover autopsy phases after the election, s
	lagSum     float64
	lagN       int
	injected   int64
	quorumTOs  uint64
	unplanned  int64 // crashes nobody planted

	recoveryP50 float64 // median fault recovery, ns
}

// saturated runs one saturated window with tracing off. Untraced runs
// measure throughput and allocations per event; traced runs add a
// traced half, whose throughput against the untraced half gives the
// tracing overhead.
func (b *bench) saturated(a *accum, g *generator, dur time.Duration) error {
	limit := b.limit
	if b.traced {
		limit = b.limit / 2
		dur /= 2
	}
	b.tr.setTracing(false)
	m0 := mallocs()
	ph, d, err := g.saturate(dur, limit)
	a.injected += ph.injected.Load()
	if err != nil {
		return err
	}
	a.satMallocs += mallocs() - m0
	a.satEvents += ph.completed.Load()
	a.tput = append(a.tput, float64(ph.completed.Load())/d.Seconds())
	if !b.traced {
		return nil
	}
	b.tr.setTracing(true)
	ph, d, err = g.saturate(dur, b.limit-limit)
	a.injected += ph.injected.Load()
	if err != nil {
		return err
	}
	a.tputTraced = append(a.tputTraced, float64(ph.completed.Load())/d.Seconds())
	return nil
}

// pacedRun runs an open-loop phase of n events at rate, traced in
// traced runs, and folds its samples into a: the p50 and p90 of every
// window of win consecutive events, and the pooled sample.
func (b *bench) pacedRun(a *accum, g *generator, n, win int, rate float64, seed int64, before func(int) error) (*phase, error) {
	b.tr.setTracing(b.traced)
	defer b.tr.setTracing(false)
	due := poissonDue(n, rate, seed, b.tr.now()+int64(2*time.Millisecond))
	ph, err := g.paced(due, before)
	a.injected += ph.injected.Load()
	if err != nil {
		return ph, err
	}
	ph.mu.Lock()
	defer ph.mu.Unlock()
	for w := 0; w+win <= n; w += win {
		lat := make([]float64, win)
		for i := range lat {
			lat[i] = float64(ph.exit[w+i] - due[w+i])
		}
		lat = sortedCopy(lat)
		a.p50 = append(a.p50, percentile(lat, 0.5))
		a.p90 = append(a.p90, percentile(lat, 0.9))
	}
	a.lat = append(a.lat, ph.lat...)
	for i := 0; i < int(ph.injected.Load()); i++ {
		a.lateness = append(a.lateness, float64(ph.inject[i]-ph.due[i]))
	}
	a.led.merge(&ph.led)
	return ph, nil
}

// singleRounds drives a single-node workload's rounds; probe, if set,
// closes each round.
func (b *bench) singleRounds(a *accum, g *generator, rate float64, probe func() error) error {
	sat := time.Duration(satShare * float64(b.seconds) / rounds)
	n := int(rate * pacedShare * b.seconds.Seconds() / rounds)
	if b.limit > 0 {
		n = min(n, b.limit)
	}
	for r := 0; r < rounds; r++ {
		if err := b.saturated(a, g, sat); err != nil {
			return err
		}
		if _, err := b.pacedRun(a, g, n, n, rate, b.seed+1+int64(r), nil); err != nil {
			return err
		}
		if probe != nil {
			if err := probe(); err != nil {
				return err
			}
		}
	}
	return nil
}

func (l *ledger) merge(o *ledger) {
	l.events += o.events
	l.deliveries += o.deliveries
	l.rpcs += o.rpcs
	l.total += o.total
	for i := range l.stage {
		l.stage[i] += o.stage[i]
	}
}

// crashProbe runs a closed loop of events in which every other one is
// a planted crash, timing each recovery without queueing in front of it.
func (b *bench) crashProbe(a *accum, g *generator, crashes int) error {
	b.tr.setTracing(b.traced)
	defer b.tr.setTracing(false)
	ph := &phase{}
	g.begin(ph)
	for i := 0; i < 2*crashes; i++ {
		ev := g.st.event(i%2 == 1)
		if err := g.inject(ev); err != nil {
			return err
		}
		ph.injected.Add(1)
		a.injected++
		if err := g.wait(ph); err != nil {
			return err
		}
	}
	return nil
}

func runFlowSetup(b *bench) error {
	layout := newFlowLayout(b.seed, flowSwitches, flowResident)
	newApp := func() controller.App { return &flowApp{layout: layout, probe: &b.tr.probe} }
	s, err := b.setupSingle(core.Config{CheckpointEvery: 1}, newApp, flowSwitches, layout)
	if err != nil {
		return err
	}
	defer s.close()
	st := newFlowStream(b.seed, layout)
	g := &generator{tr: b.tr, st: st, drain: 30 * time.Second,
		target: func() injector { return s.stack.Controller }}
	a := &accum{}
	err = b.singleRounds(a, g, flowRate, func() error { return b.crashProbe(a, g, flowProbeCrashes) })
	b.check("every-event-completed", err)
	b.checkSingle(a, s, st, flowAppName, flowResident)
	b.checkAppState(s.stack, flowAppName, len(layout.base), func(vals []uint64) error {
		for i := 0; i < layout.switches; i++ {
			if vals[i] != st.delivered[i] {
				return fmt.Errorf("switch %d: app counted %d installs, %d events were delivered", i+1, vals[i], st.delivered[i])
			}
		}
		return nil
	})
	b.harvestStack(s.stack.Metrics, b.tr.completed.Load()-s.start)
	b.finish(a, st.crashes)
	return nil
}

func runMonitorCrash(b *bench) error {
	newApp := func() controller.App { return &monitorApp{probe: &b.tr.probe} }
	cfg := core.Config{CheckpointEvery: 1, CheckpointDelta: 16, Parallel: true, BatchMax: 32}
	s, err := b.setupSingle(cfg, newApp, monitorSwitches, nil)
	if err != nil {
		return err
	}
	defer s.close()
	st := newMonitorStream(b.seed, monitorSwitches, monitorCrashEvery)
	g := &generator{tr: b.tr, st: st, drain: 30 * time.Second,
		target: func() injector { return s.stack.Controller }}
	a := &accum{}
	err = b.singleRounds(a, g, monitorRate, nil)
	b.check("every-event-completed", err)
	b.checkSingle(a, s, st, monitorAppName, 0)
	b.checkAppState(s.stack, monitorAppName, monitorSlots, func(vals []uint64) error {
		if want := st.totalDelivered(); vals[0] != want {
			return fmt.Errorf("checkpointed count %d, want %d non-crashing events", vals[0], want)
		}
		var sum uint64
		for _, v := range vals[1:] {
			sum += v
		}
		if sum != vals[0] {
			return fmt.Errorf("flow buckets sum to %d, count is %d", sum, vals[0])
		}
		return nil
	})
	b.harvestStack(s.stack.Metrics, b.tr.completed.Load()-s.start)
	b.finish(a, st.crashes)
	return nil
}

// quorumSatWindow is each cluster's saturated window.
const quorumSatWindow = 1500 * time.Millisecond

// quorumCycles is how many clusters, each with one leader kill, a run
// of the given length holds.
func quorumCycles(seconds time.Duration) int {
	// Saturated window and its drain, open-loop phase, set-up, failover
	// and close.
	cycle := quorumSatWindow.Seconds() + 0.5 + float64(quorumCycleEvs)/quorumRate + 0.8
	return max(3, int(seconds.Seconds()/cycle))
}

func runQuorumFailover(b *bench) error {
	layout := newFlowLayout(b.seed, quorumSwitches, quorumResident)
	newApp := func() controller.App { return &flowApp{layout: layout, probe: &b.tr.probe} }
	a := &accum{}
	// Extra set-ups first, so setup_s rests on enough samples; each
	// cycle's own cluster start adds one more.
	t0 := time.Now()
	for b.moreSetups(time.Since(t0)) {
		cluster, _, err := b.startCluster(layout, newApp)
		if err != nil {
			b.check("setup", err)
			b.finish(a, 0)
			return nil
		}
		cluster.Close()
	}
	cycles := quorumCycles(b.seconds)
	for c := 0; c < cycles; c++ {
		if err := b.quorumCycle(a, layout, newApp, c); err != nil {
			b.check(fmt.Sprintf("cycle-%d", c), err)
			break
		}
	}
	b.finish(a, 0)
	return nil
}

// quorumCycle starts a fresh cluster, fills it, runs a saturated window,
// then an open-loop phase during which the leader is killed, and checks
// the successor.
func (b *bench) quorumCycle(a *accum, layout *flowLayout, newApp func() controller.App, c int) error {
	cluster, net, err := b.startCluster(layout, newApp)
	if err != nil {
		return err
	}
	defer cluster.Close()
	stack := cluster.Stack()
	served := b.tr.completed.Load()

	st := newFlowStream(b.seed*1000+int64(c), layout)
	g := &generator{tr: b.tr, st: st, drain: 30 * time.Second,
		target: func() injector { return stack.Controller }}
	if err := b.saturated(a, g, quorumSatWindow); err != nil {
		return err
	}

	var tKill, tUp int64
	before := func(i int) error {
		if b.traced {
			a.lagSum += float64(cluster.ReplicationLag())
			a.lagN++
		}
		if i != quorumKillAt {
			return nil
		}
		// Kill between events: everything injected has completed, so
		// no event is lost with the leader's queue.
		if err := g.wait(b.tr.ph.Load()); err != nil {
			return err
		}
		old := cluster.LeaderName()
		b.harvestStack(stack.Metrics, b.tr.completed.Load()-served)
		tKill = b.tr.now()
		if err := cluster.KillLeader(); err != nil {
			return err
		}
		next, err := cluster.WaitLeader(old, 10*time.Second)
		if err != nil {
			return err
		}
		tUp = b.tr.now()
		stack = next
		served = b.tr.completed.Load()
		b.interpose(stack)
		return nil
	}
	ph, err := b.pacedRun(a, g, quorumCycleEvs, quorumWindow, quorumRate, b.seed*1000+int64(c)+1, before)
	if err != nil {
		return err
	}
	first := ph.exit[quorumKillAt]
	a.failover = append(a.failover, float64(first-tKill))
	a.promote = append(a.promote, float64(tUp-tKill))
	a.resume = append(a.resume, float64(first-tUp))
	a.mttr = append(a.mttr, float64(cluster.LastMTTR()))
	for _, ap := range stack.Autopsies.All() {
		if ap.Trigger != "failover" {
			continue
		}
		work := 0.0
		for _, p := range ap.Timeline {
			if p.Phase != "detect" && p.Phase != "election" {
				work += p.Seconds
			}
		}
		a.failWork = append(a.failWork, work)
	}

	// The successor must serve a network exactly as NetLog believes it
	// is, with every resident flow and nothing left half-done.
	label := fmt.Sprintf("cycle-%d/", c)
	b.checkTables(label, stack.NetLog, net, quorumResident)
	var orphans error
	if n := len(cluster.State().Journal.Orphans()); n != 0 {
		orphans = fmt.Errorf("%d orphaned transactions", n)
	}
	b.check(label+"journal-no-orphans", orphans)
	var failovers error
	if cluster.Failovers() != 1 {
		failovers = fmt.Errorf("%d failovers completed, want 1", cluster.Failovers())
	}
	b.check(label+"failover-completed", failovers)
	var quorum error
	if n := cluster.QuorumTimeouts(); n != 0 {
		quorum = fmt.Errorf("%d quorum waits timed out", n)
		a.quorumTOs += n
	}
	b.check(label+"no-quorum-timeouts", quorum)
	b.check(label+"app-serving", appServing(stack, flowAppName))
	b.harvestStack(stack.Metrics, b.tr.completed.Load()-served)
	return nil
}

// startCluster starts a 3-replica quorum-commit cluster over a fresh
// fabric, interposes on the leader and fills its switches, recording
// the time taken as one set-up.
func (b *bench) startCluster(layout *flowLayout, newApp func() controller.App) (*replica.Cluster, *netsim.Network, error) {
	t0 := time.Now()
	cluster := replica.New(replica.Options{
		Dir:             b.stateDir(),
		Replicas:        3,
		Apps:            []func() controller.App{newApp},
		CommitMode:      replica.CommitQuorum,
		LeaseTTL:        quorumTTL,
		CheckpointEvery: 1,
		WAL:             walOptions,
	})
	net := netsim.Linear(quorumSwitches, nil)
	if err := cluster.Start(net); err != nil {
		cluster.Close()
		return nil, nil, fmt.Errorf("cluster start: %w", err)
	}
	b.interpose(cluster.Stack())
	if err := fillTables(cluster.Stack().Controller, layout); err != nil {
		cluster.Close()
		return nil, nil, err
	}
	b.setups = append(b.setups, time.Since(t0).Seconds())
	return cluster, net, nil
}

// checkSingle runs the correctness gate for a single-node workload.
func (b *bench) checkSingle(a *accum, s *single, st *stream, app string, resident int) {
	b.check("app-serving", appServing(s.stack, app))
	b.checkTables("", s.stack.NetLog, s.net, resident)
	var orphans error
	if n := len(s.st.Journal.Orphans()); n != 0 {
		orphans = fmt.Errorf("%d orphaned transactions", n)
	}
	b.check("journal-no-orphans", orphans)
	var recov error
	cp := s.stack.CrashPad
	switch {
	case b.tr.unrecov != 0:
		recov = fmt.Errorf("%d planted crashes not recovered", b.tr.unrecov)
	case int(cp.Recoveries.Load()) != st.crashes || int(cp.CrashesSeen.Load()) != st.crashes:
		recov = fmt.Errorf("%d crashes seen, %d recovered, %d planted",
			cp.CrashesSeen.Load(), cp.Recoveries.Load(), st.crashes)
	}
	if seen := int64(cp.CrashesSeen.Load()) - int64(st.crashes); seen > 0 {
		a.unplanned += seen
	}
	b.check("recoveries-equal-planted-crashes", recov)
}

// appServing fails if the controller quarantined the app.
func appServing(stack *core.Stack, app string) error {
	if stack.Controller.AppDisabled(app) {
		return fmt.Errorf("%s quarantined", app)
	}
	return nil
}

// checkTables compares every switch's table with NetLog's shadow and
// counts its flows.
func (b *bench) checkTables(label string, nl *netlog.Manager, net *netsim.Network, resident int) {
	var shadow, occupancy error
	for _, sw := range net.Switches() {
		got := sw.Table().Fingerprint()
		b.fingerprints = append(b.fingerprints, got)
		if want := nl.ShadowFingerprint(sw.DPID); got != want && shadow == nil {
			shadow = fmt.Errorf("switch %d table differs from NetLog shadow", sw.DPID)
		}
		if n := sw.Table().Len(); n != resident && occupancy == nil {
			occupancy = fmt.Errorf("switch %d holds %d flows, want %d", sw.DPID, n, resident)
		}
	}
	b.check(label+"tables-match-shadow", shadow)
	b.check(label+"resident-flows", occupancy)
}

// checkAppState checkpoints the app now and verifies the stored image.
func (b *bench) checkAppState(stack *core.Stack, app string, slots int, verify func([]uint64) error) {
	err := stack.Snapshot(app)
	if err == nil {
		cp := stack.Store.Latest(app)
		if cp == nil {
			err = errors.New("no checkpoint stored")
		} else {
			vals := make([]uint64, slots)
			if err = decodeCounters(cp.State, vals); err == nil {
				err = verify(vals)
			}
		}
	}
	b.check("app-checkpoint-state", err)
}
