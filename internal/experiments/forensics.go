package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"legosdn/internal/controller"
	"legosdn/internal/core"
	"legosdn/internal/crashpad"
	"legosdn/internal/flightrec"
	"legosdn/internal/metrics"
	"legosdn/internal/netsim"
	"legosdn/internal/openflow"
)

// armedChecker reports one synthetic invariant violation each time it
// is armed — the experiment arms it just before the doomed event, so
// exactly that event is classified byzantine and recovery's own
// redelivery sees a clean network.
type armedChecker struct {
	mu    sync.Mutex
	armed bool
}

func (c *armedChecker) arm() {
	c.mu.Lock()
	c.armed = true
	c.mu.Unlock()
}

func (c *armedChecker) Check() []crashpad.Violation {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.armed {
		return nil
	}
	c.armed = false
	return []crashpad.Violation{{Desc: "synthetic invariant violation (R1 harness)"}}
}

// durationStats computes quantiles over collected samples.
func durationQuantile(samples []time.Duration, q float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(q * float64(len(s)-1))
	return s[idx]
}

// ClaimRecoveryForensics is the R1 experiment: the MTTR breakdown the
// flight recorder makes possible. One cell per crash class of the §3.3
// policy matrix runs a sustained PacketIn workload with a deterministic
// crash every crashEvery-th event against a full LegoSDN stack whose
// autopsy store persists to disk. Per cell it reports recoveries, MTTR
// p50/p95 (from Crash-Pad tickets, whose RecoveryTime is the
// recovery-phase timeline's total), the per-phase p50 breakdown (from
// the autopsies' timelines — the same numbers the
// legosdn_recovery_phase_seconds histograms aggregate), sustained
// throughput with the always-on recorder in the path, and how many
// persisted autopsy files re-read and re-parsed with a complete
// full-phase timeline.
func ClaimRecoveryForensics(quick bool) Table {
	events := 1200
	crashEvery := 60
	if quick {
		events = 240
		crashEvery = 60
	}
	crashes := events / crashEvery

	t := Table{
		ID:    "R1",
		Title: "Crash forensics: MTTR breakdown by recovery phase, autopsy coverage",
		Columns: []string{"section", "cell", "detail", "p50", "p95",
			"result"},
		Notes: []string{
			fmt.Sprintf("%d PacketIns per cell, a crash every %d events; flight recorder always on", events, crashEvery),
			"mttr = recovery-phase timeline total (detect+isolate+checkpoint-restore+rollback+replay+resume)",
			"phase rows break one recovery down; autopsy files are re-read from disk and re-parsed",
			"no-compromise quarantines on the first crash: one ticket, remaining poison events are no-ops",
		},
		Values: map[string]float64{"r1_events_per_cell": float64(events)},
	}

	cells := []struct {
		name      string
		policy    crashpad.Compromise
		byzantine bool
		// wantOutcome is the matrix cell's expected ticket outcome.
		wantOutcome crashpad.Outcome
		// oneCrash cells quarantine on the first failure.
		oneCrash bool
	}{
		{name: "failstop/absolute", policy: crashpad.AbsoluteCompromise,
			wantOutcome: crashpad.OutcomeRecovered},
		{name: "failstop/equivalence", policy: crashpad.EquivalenceCompromise,
			wantOutcome: crashpad.OutcomeFallback}, // PacketIn has no equivalent events
		{name: "failstop/no-compromise", policy: crashpad.NoCompromise,
			wantOutcome: crashpad.OutcomeAppDown, oneCrash: true},
		{name: "byzantine/absolute", policy: crashpad.AbsoluteCompromise,
			byzantine: true, wantOutcome: crashpad.OutcomeRecovered},
	}

	totalParsed := 0.0
	for _, cell := range cells {
		dir, err := os.MkdirTemp("", "legosdn-r1-autopsy-")
		if err != nil {
			panic(fmt.Sprintf("experiments: R1 autopsy dir: %v", err))
		}

		reg := metrics.NewRegistry()
		var tickets []*crashpad.Ticket
		checker := &armedChecker{}
		cfg := core.Config{
			Mode:            core.ModeLegoSDN,
			CheckpointEvery: 4,
			Policies:        crashpad.NewPolicySet(cell.policy),
			Metrics:         reg,
			AutopsyDir:      dir,
			OnTicket:        func(tk *crashpad.Ticket) { tickets = append(tickets, tk) },
		}
		if cell.byzantine {
			cfg.Checker = checker
		}
		stack := core.NewStack(cfg)

		appName := "learning-switch"
		if cell.byzantine {
			// The handler must succeed — only the checker objects.
			stack.AddApp(func() controller.App { return newRegistryApp(appName) })
		} else {
			stack.AddApp(newPoisonLearningSwitch(6666))
		}
		n := netsim.Single(2, nil)
		connect(stack, n)
		h1, h2 := n.Host("h1"), n.Host("h2")

		base := stack.Controller.Processed.Load()
		start := time.Now()
		for i := 1; i <= events; i++ {
			doomed := i%crashEvery == 0
			dport := uint16(80)
			if doomed && !cell.byzantine {
				dport = 6666
			}
			if doomed && cell.byzantine {
				checker.arm()
			}
			ev := controller.Event{
				Kind: controller.EventPacketIn,
				DPID: 1,
				Message: &openflow.PacketIn{
					BufferID: openflow.BufferIDNone,
					InPort:   hostPortR1,
					Reason:   openflow.PacketInReasonNoMatch,
					Data:     netsim.TCPFrame(h1, h2, uint16(2000+i%60000), dport, nil).Marshal(),
				},
			}
			if err := stack.Controller.Inject(ev); err != nil {
				panic(fmt.Sprintf("experiments: R1 inject %d: %v", i, err))
			}
			// Lockstep: recovery runs synchronously inside dispatch, so
			// Processed advancing past the event means it fully resolved.
			target := base + uint64(i)
			if !waitCond(2*time.Minute, func() bool { return stack.Controller.Processed.Load() >= target }) {
				panic(fmt.Sprintf("experiments: R1 %s stalled at event %d", cell.name, i))
			}
		}
		elapsed := time.Since(start)
		drainQuiesce(stack.Controller, 20*time.Millisecond)

		// MTTR from tickets; phase breakdown from the in-memory autopsies.
		var mttrs []time.Duration
		outcomeOK := len(tickets) > 0
		for _, tk := range tickets {
			mttrs = append(mttrs, tk.RecoveryTime)
			if tk.Outcome != cell.wantOutcome {
				outcomeOK = false
			}
		}
		phaseSamples := map[string][]time.Duration{}
		for _, a := range stack.Autopsies.All() {
			for _, pd := range a.Timeline {
				phaseSamples[pd.Phase] = append(phaseSamples[pd.Phase],
					time.Duration(pd.Seconds*float64(time.Second)))
			}
		}

		// Forensics durability: every persisted autopsy must re-read,
		// re-parse and carry a complete timeline (all flightrec phases).
		parsed, files := 0, 0
		entries, _ := os.ReadDir(dir)
		for _, e := range entries {
			files++
			b, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				continue
			}
			var a flightrec.Autopsy
			if json.Unmarshal(b, &a) != nil {
				continue
			}
			if len(a.Timeline) == int(flightrec.NumPhases) {
				parsed++
			}
		}
		if parsed == 0 || parsed != files {
			panic(fmt.Sprintf("experiments: R1 %s: %d/%d persisted autopsies parse with a full timeline",
				cell.name, parsed, files))
		}
		totalParsed += float64(parsed)

		wantTickets := crashes
		if cell.oneCrash {
			wantTickets = 1
		}
		eps := float64(events) / elapsed.Seconds()
		p50, p95 := durationQuantile(mttrs, 0.50), durationQuantile(mttrs, 0.95)
		result := fmt.Sprintf("%d/%d %s", len(tickets), wantTickets, cell.wantOutcome)
		if !outcomeOK {
			result += " (UNEXPECTED)"
		}
		t.AddRow("cell", cell.name,
			fmt.Sprintf("%d events, %.0f ev/s", events, eps),
			us(p50), us(p95), result)

		for _, phase := range flightrec.PhaseNames() {
			samples := phaseSamples[phase]
			pp50, pp95 := durationQuantile(samples, 0.50), durationQuantile(samples, 0.95)
			share := 0.0
			if p50 > 0 {
				share = 100 * float64(pp50) / float64(p50)
			}
			t.AddRow("phase", cell.name, phase, us(pp50), us(pp95),
				fmt.Sprintf("%.0f%% of mttr p50", share))
		}
		t.AddRow("autopsy", cell.name, dir+"/autopsy-*.json", "", "",
			fmt.Sprintf("%d/%d parsed, 6-phase timelines", parsed, files))

		key := map[string]string{
			"failstop/absolute":      "failstop_absolute",
			"failstop/equivalence":   "failstop_equivalence",
			"failstop/no-compromise": "failstop_nocompromise",
			"byzantine/absolute":     "byzantine_absolute",
		}[cell.name]
		t.Values["r1_"+key+"_recoveries"] = float64(len(tickets))
		t.Values["r1_"+key+"_mttr_p50_us"] = float64(p50.Microseconds())
		t.Values["r1_"+key+"_mttr_p95_us"] = float64(p95.Microseconds())
		t.Values["r1_"+key+"_events_per_sec"] = eps
		t.Values["r1_"+key+"_autopsies_parsed"] = float64(parsed)

		// The histogram companion block for the paper's default policy:
		// legosdn_recovery_phase_seconds{phase=...} plus the recorder's
		// own counters, frozen after the run.
		if cell.name == "failstop/absolute" {
			t.CaptureMetrics(reg)
			t.Values["r1_flightrec_records"] = float64(stack.Flight.Records.Load())
		}

		stack.Close()
		os.RemoveAll(dir)
	}
	t.Values["r1_autopsies_parsed_total"] = totalParsed
	return t
}

// hostPortR1 is where topology builders attach hosts (netsim convention).
const hostPortR1 uint16 = 100
