package experiments

import (
	"fmt"
	"sync/atomic"
	"time"

	"legosdn/internal/controller"
	"legosdn/internal/core"
	"legosdn/internal/metrics"
	"legosdn/internal/netsim"
	"legosdn/internal/openflow"
	"legosdn/internal/workload"
)

// countApp is a zero-delay handler: the P2 capacity measurement wants
// the pipeline's own ceiling, so the app does nothing but count. It
// implements BatchApp so the AppVisor stub side consumes a coalesced
// batch in one call, mirroring how a throughput-conscious app would.
type countApp struct {
	name    string
	handled *atomic.Uint64
}

func (a *countApp) Name() string { return a.name }
func (a *countApp) Subscriptions() []controller.EventKind {
	return []controller.EventKind{controller.EventPacketIn}
}
func (a *countApp) HandleEvent(_ controller.Context, _ controller.Event) error {
	a.handled.Add(1)
	return nil
}
func (a *countApp) HandleEventBatch(_ controller.Context, evs []controller.Event) error {
	a.handled.Add(uint64(len(evs)))
	return nil
}

// scaleFlowMod builds the exact-match FlowMod a learning switch would
// install for flow id in the space.
func scaleFlowMod(space workload.FlowSpace, id uint64) *openflow.FlowMod {
	src, dst, sport, dport := space.Tuple(id)
	m := openflow.Match{
		InPort: uint16(1 + id%4),
		DlSrc:  netsim.HostMAC(src), DlDst: netsim.HostMAC(dst),
		DlType: netsim.EtherTypeIPv4, NwProto: netsim.IPProtoTCP,
		NwSrc: netsim.HostIP(src), NwDst: netsim.HostIP(dst),
		TpSrc: sport, TpDst: dport,
	}
	return &openflow.FlowMod{
		Match: m, Command: openflow.FlowModAdd, Priority: 100,
		BufferID: openflow.BufferIDNone, OutPort: openflow.PortNone,
		Actions: []openflow.Action{&openflow.ActionOutput{Port: 2}},
	}
}

// ClaimScale is the P2 experiment: the data plane at production scale.
// Three sections share one table:
//
//  1. topology-build rows prove the fat-tree and Clos generators reach
//     thousands of switches in milliseconds;
//  2. flow-table rows measure the indexed Lookup against the retained
//     linear-scan reference at a 10k-entry table (the paper-facing
//     claim is a >=10x win; the index typically lands far beyond it);
//  3. capacity rows drive pre-generated PacketIn streams (distinct
//     five-tuples from a seeded flow space) through the full AppVisor
//     path — serial vs parallel-batched dispatch, 1 and 4 apps — and
//     record sustained events/sec, targeting >=100k on one core.
func ClaimScale(quick bool) Table {
	events := 200_000
	lookups := 200_000
	linearLookups := 2_000
	if quick {
		events = 5_000
		lookups = 20_000
		linearLookups = 200
	}

	t := Table{
		ID:    "P2",
		Title: "Data-plane scale: large topologies, indexed lookups, AppVisor capacity",
		Columns: []string{"section", "configuration", "size", "elapsed",
			"rate", "detail"},
		Notes: []string{
			"topology rows build the fabric in-process (switches, links, hosts)",
			"lookup rows run one 10k-entry exact-match table; linear is the retained pre-index reference scan",
			"capacity rows push distinct-flow PacketIns through controller dispatch + AppVisor UDP relay with zero-delay handlers",
		},
		Values: map[string]float64{"events": float64(events)},
	}

	// --- Section 1: topology generators at scale. ---
	type topo struct {
		name  string
		build func() *netsim.Network
	}
	topos := []topo{
		{"fattree k=16", func() *netsim.Network { return netsim.FatTree(16, nil) }},
		{"clos 8x992 (1k sw)", func() *netsim.Network { return netsim.Clos2Tier(8, 992, 16, nil) }},
	}
	if !quick {
		topos = append(topos,
			topo{"fattree k=32", func() *netsim.Network { return netsim.FatTree(32, nil) }},
			topo{"clos 8x9992 (10k sw)", func() *netsim.Network { return netsim.Clos2Tier(8, 9992, 4, nil) }},
		)
	}
	maxSwitches := 0.0
	for _, tp := range topos {
		start := time.Now()
		n := tp.build()
		elapsed := time.Since(start)
		switches := len(n.Switches())
		rate := float64(switches) / elapsed.Seconds()
		t.AddRow("topology", tp.name, fmt.Sprintf("%d sw", switches),
			elapsed.Round(time.Millisecond).String(),
			fmt.Sprintf("%.0f sw/s", rate),
			fmt.Sprintf("%d hosts", len(n.Hosts())))
		if s := float64(switches); s > maxSwitches {
			maxSwitches = s
		}
	}
	t.Values["topology_max_switches"] = maxSwitches

	// --- Section 2: indexed vs linear lookup at 10k entries. ---
	const tableEntries = 10_000
	space := workload.NewFlowSpace(250)
	ft := netsim.NewFlowTable(nil)
	depth := metrics.NewHistogram(netsim.LookupDepthBuckets)
	ft.SetDepthObserver(func(d int) { depth.Observe(float64(d)) })
	packets := make([]openflow.PacketFields, tableEntries)
	for i := 0; i < tableEntries; i++ {
		fm := scaleFlowMod(space, uint64(i))
		if _, err := ft.Apply(fm); err != nil {
			panic(fmt.Sprintf("experiments: scale table build: %v", err))
		}
		packets[i] = openflow.PacketFields{
			InPort: fm.Match.InPort,
			DlSrc:  fm.Match.DlSrc, DlDst: fm.Match.DlDst,
			DlVlan: fm.Match.DlVlan, DlVlanPcp: fm.Match.DlVlanPcp,
			DlType: fm.Match.DlType, NwTos: fm.Match.NwTos, NwProto: fm.Match.NwProto,
			NwSrc: fm.Match.NwSrc, NwDst: fm.Match.NwDst,
			TpSrc: fm.Match.TpSrc, TpDst: fm.Match.TpDst,
		}
	}

	start := time.Now()
	for i := 0; i < lookups; i++ {
		if ft.Lookup(packets[i%tableEntries], 64) == nil {
			panic("experiments: scale indexed lookup missed")
		}
	}
	indexedNs := float64(time.Since(start).Nanoseconds()) / float64(lookups)

	start = time.Now()
	for i := 0; i < linearLookups; i++ {
		if ft.LookupLinear(packets[i%tableEntries]) == nil {
			panic("experiments: scale linear lookup missed")
		}
	}
	linearNs := float64(time.Since(start).Nanoseconds()) / float64(linearLookups)
	speedup := linearNs / indexedNs
	ds := depth.Snapshot()
	meanDepth := 0.0
	if ds.Count > 0 {
		meanDepth = ds.Sum / float64(ds.Count)
	}

	t.AddRow("lookup", "indexed", fmt.Sprintf("%d entries", tableEntries),
		fmt.Sprintf("%.0f ns/op", indexedNs),
		fmt.Sprintf("%.2fM/s", 1e3/indexedNs),
		fmt.Sprintf("mean depth %.1f", meanDepth))
	t.AddRow("lookup", "linear (reference)", fmt.Sprintf("%d entries", tableEntries),
		fmt.Sprintf("%.0f ns/op", linearNs),
		fmt.Sprintf("%.2fM/s", 1e3/linearNs),
		fmt.Sprintf("%.0fx slower", speedup))
	t.Values["lookup_indexed_ns_10k"] = indexedNs
	t.Values["lookup_linear_ns_10k"] = linearNs
	t.Values["lookup_speedup_10k"] = speedup
	t.Values["lookup_depth_mean_10k"] = meanDepth

	// --- Section 3: AppVisor capacity grid. ---
	const switches = 16
	bigSpace := workload.NewFlowSpace(10_000)
	stream, _ := workload.EventStream(events, switches, bigSpace, 0, 7)

	run := func(apps int, parallel bool) (time.Duration, *metrics.Registry) {
		reg := metrics.NewRegistry()
		var handled atomic.Uint64
		stack := core.NewStack(core.Config{
			Mode: core.ModeIsolated, Parallel: parallel, BatchMax: 64,
			Metrics: reg, Flight: benchFlight,
		})
		for i := 0; i < apps; i++ {
			i := i
			if err := stack.AddApp(func() controller.App {
				return &countApp{name: fmt.Sprintf("count%d", i), handled: &handled}
			}); err != nil {
				panic(fmt.Sprintf("experiments: scale stub: %v", err))
			}
		}
		defer stack.Close()

		start := time.Now()
		for i := range stream {
			if err := stack.Controller.Inject(stream[i]); err != nil {
				panic(fmt.Sprintf("experiments: scale inject: %v", err))
			}
		}
		want := uint64(events) * uint64(apps)
		if !waitCond(4*time.Minute, func() bool { return handled.Load() >= want }) {
			panic(fmt.Sprintf("experiments: scale run stalled at %d/%d deliveries",
				handled.Load(), want))
		}
		return time.Since(start), reg
	}

	maxEPS := 0.0
	for _, apps := range []int{1, 4} {
		for _, mode := range []struct {
			name     string
			parallel bool
		}{{"serial", false}, {"parallel+batch", true}} {
			elapsed, reg := run(apps, mode.parallel)
			eps := float64(events) / elapsed.Seconds()
			t.AddRow("capacity", fmt.Sprintf("%d app(s), %s", apps, mode.name),
				fmt.Sprintf("%d events", events),
				elapsed.Round(time.Millisecond).String(),
				fmt.Sprintf("%.0f ev/s", eps),
				"appvisor, zero-delay handlers")
			t.Values[fmt.Sprintf("p2_%dapps_%s_events_per_sec", apps,
				map[bool]string{false: "serial", true: "parallel"}[mode.parallel])] = eps
			if eps > maxEPS {
				maxEPS = eps
			}
			if apps == 1 && mode.parallel {
				t.CaptureMetrics(reg)
			}
		}
	}
	t.Values["p2_max_events_per_sec"] = maxEPS
	t.AddRow("capacity", "best cell", fmt.Sprintf("%d events", events), "",
		fmt.Sprintf("%.0f ev/s", maxEPS), "headline: p2_max_events_per_sec")
	return t
}
