// Command legosdn runs a complete LegoSDN deployment against a
// simulated network and narrates a failure-and-recovery scenario: apps
// come up in stubs, traffic flows, a deterministic bug crashes an app,
// and — depending on the architecture — the control plane either dies
// (monolithic) or recovers (legosdn), with the problem ticket printed.
//
// Usage:
//
//	legosdn -mode legosdn -topo linear:3 -apps learning-switch,stats-collector
//	legosdn -mode monolithic            # watch fate sharing happen
package main

import (
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"legosdn/internal/apps"
	"legosdn/internal/controller"
	"legosdn/internal/core"
	"legosdn/internal/crashpad"
	"legosdn/internal/durable"
	"legosdn/internal/flightrec"
	"legosdn/internal/invariant"
	"legosdn/internal/netsim"
	"legosdn/internal/oftrace"
	"legosdn/internal/openflow"
	"legosdn/internal/status"
	"legosdn/internal/workload"
)

func main() {
	mode := flag.String("mode", "legosdn", "architecture: monolithic | isolated | legosdn")
	topo := flag.String("topo", "single:4", "topology: single:N | linear:N | ring:N | tree:D,F | fattree:K")
	appList := flag.String("apps", "learning-switch,stats-collector",
		fmt.Sprintf("comma-separated apps (available: %s)", strings.Join(apps.Names(), ", ")))
	flows := flag.Int("flows", 20, "random flows to generate before and after the failure")
	poison := flag.Int("poison", 6666, "TCP port whose traffic crashes the first app (0 disables)")
	checkInv := flag.Bool("invariants", true, "run the invariant checkers after each event")
	policyFile := flag.String("policy", "", "operator policy file (§3.3 policy language)")
	metricsAddr := flag.String("metrics-addr", "",
		"serve the debug endpoint on this address (e.g. :9090): /metrics, /status, /tickets, /flows, /debug/traces, /debug/autopsy, /debug/pprof")
	traceFile := flag.String("trace", "", "record all OpenFlow control traffic to this file")
	traceSample := flag.Float64("trace-sample", 0.01,
		"fraction of injected events to trace end-to-end (0 disables, 1 traces all)")
	stateDir := flag.String("state-dir", "",
		"durable state directory: checkpoints and the NetLog transaction journal persist here, and a restart rolls back any transaction a crash interrupted (empty = in-memory only)")
	checkpointDelta := flag.Int("checkpoint-delta", 16,
		"incremental checkpoints: full image every Nth per-app checkpoint, byte-range deltas between (<=1 stores every checkpoint as a full image)")
	walGroupCommit := flag.Bool("wal-group-commit", true,
		"batch concurrent WAL appends under one fsync (only meaningful with -state-dir)")
	replicas := flag.Int("replicas", 1,
		"run N control-plane replicas with leader election and WAL shipping; kills the leader mid-transaction and narrates the failover (>1 implies -mode legosdn, ignores -poison)")
	flag.Parse()

	m, err := parseMode(*mode)
	if err != nil {
		log.Fatalf("legosdn: %v", err)
	}
	n, err := buildTopo(*topo)
	if err != nil {
		log.Fatalf("legosdn: %v", err)
	}

	if *replicas > 1 {
		var names []string
		for _, name := range strings.Split(*appList, ",") {
			names = append(names, strings.TrimSpace(name))
		}
		runReplicated(*replicas, n, names, *flows, *stateDir, *topo)
		return
	}

	var policies *crashpad.PolicySet
	if *policyFile != "" {
		text, err := os.ReadFile(*policyFile)
		if err != nil {
			log.Fatalf("legosdn: %v", err)
		}
		policies, err = crashpad.ParsePolicies(string(text))
		if err != nil {
			log.Fatalf("legosdn: %v", err)
		}
		fmt.Printf("loaded operator policy from %s\n", *policyFile)
	}

	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelInfo}))

	cfg := core.Config{
		Mode:     m,
		Policies: policies,
		OnTicket: func(tk *crashpad.Ticket) {
			fmt.Println()
			fmt.Println(tk.Render())
		},
		Logf:   log.Printf,
		Flight: flightrec.New(flightrec.Options{SampleRate: *traceSample}),
		Logger: logger,
	}
	if *checkInv {
		cfg.Checker = invariant.NewSuite(n).CrashPadChecker(nil)
	}
	cfg.CheckpointDelta = *checkpointDelta
	if *stateDir != "" {
		st, err := durable.OpenState(*stateDir, 0, durable.Options{GroupCommit: *walGroupCommit})
		if err != nil {
			log.Fatalf("legosdn: %v", err)
		}
		defer st.Close()
		cfg.Durable = st
		fmt.Printf("durable state in %s: restored %d checkpoints, %d interrupted transaction(s) pending rollback\n",
			*stateDir, st.Checkpoints.Restored(), len(st.Journal.Orphans()))
	}
	stack := core.NewStack(cfg)
	defer stack.Close()
	logger.Info("legosdn starting", append(core.BuildInfoAttrs(),
		"mode", m.String(), "trace_sample", *traceSample)...)

	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			log.Fatalf("legosdn: %v", err)
		}
		defer f.Close()
		tw, err := oftrace.NewWriter(f)
		if err != nil {
			log.Fatalf("legosdn: %v", err)
		}
		defer tw.Flush()
		oftrace.Attach(stack.Controller, tw)
		fmt.Printf("recording control traffic to %s\n", *traceFile)
	}
	if *metricsAddr != "" {
		go func() {
			srv := &http.Server{Addr: *metricsAddr, Handler: status.Handler(stack, n)}
			fmt.Printf("metrics on http://%s/metrics, status on http://%s/status, traces on http://%s/debug/traces, autopsies on http://%s/debug/autopsy, pprof on http://%s/debug/pprof\n",
				*metricsAddr, *metricsAddr, *metricsAddr, *metricsAddr, *metricsAddr)
			if err := srv.ListenAndServe(); err != http.ErrServerClosed {
				log.Printf("legosdn: debug server: %v", err)
			}
		}()
	}

	names := strings.Split(*appList, ",")
	for i, name := range names {
		name = strings.TrimSpace(name)
		if i == 0 && *poison > 0 {
			// The first app carries the deterministic bug.
			p := uint16(*poison)
			inner := name
			stack.AddApp(func() controller.App { return newPoisoned(inner, p) })
			fmt.Printf("app %q hosted (%s) with injected bug: crashes on TCP dport %d\n", name, m, p)
			continue
		}
		name := name
		if err := stack.AddApp(func() controller.App { return mustApp(name) }); err != nil {
			log.Fatalf("legosdn: %v", err)
		}
		fmt.Printf("app %q hosted (%s)\n", name, m)
	}

	if err := stack.ConnectNetwork(n); err != nil {
		log.Fatalf("legosdn: %v", err)
	}
	fmt.Printf("network up: %d switches, %d hosts (%s)\n",
		len(n.Switches()), len(n.Hosts()), *topo)

	gen := workload.NewTrafficGen(n, 42)
	gen.SendFlows(*flows)
	settle(stack)
	fmt.Printf("sent %d flows; delivered frames per host:", *flows)
	for _, h := range n.Hosts() {
		fmt.Printf(" %s=%d", h.Name, h.ReceivedCount())
	}
	fmt.Println()

	if *poison > 0 {
		hosts := n.Hosts()
		src, dst := hosts[0], hosts[1%len(hosts)]
		// Flush flow tables (as idle timeouts eventually would) so the
		// poisoned packet punts to the controller instead of matching an
		// installed rule.
		for _, sw := range n.Switches() {
			sw.Table().Apply(&openflow.FlowMod{
				Match: openflow.MatchAll(), Command: openflow.FlowModDelete,
				BufferID: openflow.BufferIDNone, OutPort: openflow.PortNone,
			})
		}
		fmt.Printf("\ninjecting poisoned packet %s -> %s:%d ...\n", src.Name, dst.Name, *poison)
		n.SendFromHost(src.Name, netsim.TCPFrame(src, dst, 40000, uint16(*poison), nil))
		settle(stack)

		switch {
		case stack.Controller.Crashed():
			fmt.Println("RESULT: controller CRASHED — fate sharing took the whole control plane down")
		case stack.Controller.AppDisabled(names[0]):
			fmt.Printf("RESULT: controller survived; app %q is quarantined (no recovery in this mode)\n", names[0])
		default:
			fmt.Printf("RESULT: controller survived and app %q recovered\n", names[0])
			if stack.CrashPad != nil {
				fmt.Printf("  crash-pad: crashes=%d recoveries=%d ignored=%d\n",
					stack.CrashPad.CrashesSeen.Load(), stack.CrashPad.Recoveries.Load(),
					stack.CrashPad.IgnoredEvents.Load())
			}
		}

		fmt.Printf("\npost-failure traffic (%d flows):\n", *flows)
		before := delivered(n)
		gen.SendFlows(*flows)
		settle(stack)
		fmt.Printf("  delivered %d frames after the failure\n", delivered(n)-before)
	}

	fmt.Println("\nfinal flow-table sizes:")
	for _, sw := range n.Switches() {
		fmt.Printf("  s%d: %d entries, %d packet-ins, %d flow-mods\n",
			sw.DPID, sw.Table().Len(), sw.PacketIns.Load(), sw.FlowModsRx.Load())
	}
}

func settle(stack *core.Stack) {
	last := stack.Controller.Processed.Load()
	lastChange := time.Now()
	for time.Since(lastChange) < 50*time.Millisecond {
		time.Sleep(5 * time.Millisecond)
		if cur := stack.Controller.Processed.Load(); cur != last {
			last, lastChange = cur, time.Now()
		}
		if stack.Controller.Crashed() {
			return
		}
	}
}

func delivered(n *netsim.Network) int {
	total := 0
	for _, h := range n.Hosts() {
		total += h.ReceivedCount()
	}
	return total
}

func parseMode(s string) (core.Mode, error) {
	switch strings.ToLower(s) {
	case "monolithic":
		return core.ModeMonolithic, nil
	case "isolated":
		return core.ModeIsolated, nil
	case "legosdn":
		return core.ModeLegoSDN, nil
	default:
		return 0, fmt.Errorf("unknown mode %q", s)
	}
}

func buildTopo(s string) (*netsim.Network, error) {
	kind, arg, _ := strings.Cut(s, ":")
	atoi := func(v string, def int) int {
		if n, err := strconv.Atoi(v); err == nil {
			return n
		}
		return def
	}
	switch kind {
	case "single":
		return netsim.Single(atoi(arg, 4), nil), nil
	case "linear":
		return netsim.Linear(atoi(arg, 3), nil), nil
	case "ring":
		return netsim.Ring(atoi(arg, 4), nil), nil
	case "tree":
		d, f, _ := strings.Cut(arg, ",")
		return netsim.Tree(atoi(d, 3), atoi(f, 2), nil), nil
	case "fattree":
		return netsim.FatTree(atoi(arg, 4), nil), nil
	default:
		return nil, fmt.Errorf("unknown topology %q", s)
	}
}

func mustApp(name string) controller.App {
	app, err := apps.New(name)
	if err != nil {
		log.Fatalf("legosdn: %v", err)
		os.Exit(1)
	}
	return app
}

// poisoned wraps a registry app with a crash on one TCP dport.
type poisoned struct {
	inner  controller.App
	poison uint16
}

func newPoisoned(name string, port uint16) controller.App {
	return &poisoned{inner: mustApp(name), poison: port}
}

func (p *poisoned) Name() string                          { return p.inner.Name() }
func (p *poisoned) Subscriptions() []controller.EventKind { return p.inner.Subscriptions() }
func (p *poisoned) HandleEvent(ctx controller.Context, ev controller.Event) error {
	if pin, ok := ev.Message.(*openflow.PacketIn); ok {
		if f, err := netsim.ParseFrame(pin.Data); err == nil && f.TpDst == p.poison {
			panic(fmt.Sprintf("injected bug: cannot handle traffic to port %d", p.poison))
		}
	}
	return p.inner.HandleEvent(ctx, ev)
}
func (p *poisoned) Snapshot() ([]byte, error) {
	if s, ok := p.inner.(controller.Snapshotter); ok {
		return s.Snapshot()
	}
	return nil, fmt.Errorf("%q does not snapshot", p.Name())
}
func (p *poisoned) Restore(b []byte) error {
	if s, ok := p.inner.(controller.Snapshotter); ok {
		return s.Restore(b)
	}
	return fmt.Errorf("%q does not snapshot", p.Name())
}
