// Package status exposes a running LegoSDN stack to operators over
// HTTP: a JSON summary of controller, app and recovery state, rendered
// problem tickets, and per-switch flow tables, alongside the stack's
// metrics, traces, autopsies and pprof on one mux. cmd/legosdn serves
// it with -metrics-addr; tests drive it through httptest.
package status

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"legosdn/internal/core"
	"legosdn/internal/flightrec"
	"legosdn/internal/netsim"
)

// Summary is the /status JSON document.
type Summary struct {
	Mode            string        `json:"mode"`
	ControllerUp    bool          `json:"controller_up"`
	Switches        []uint64      `json:"switches"`
	Apps            []AppStatus   `json:"apps"`
	EventsProcessed uint64        `json:"events_processed"`
	CrashPad        *CrashPadView `json:"crashpad,omitempty"`
	NetLog          *NetLogView   `json:"netlog,omitempty"`
}

// AppStatus is one app's row in the summary.
type AppStatus struct {
	Name     string `json:"name"`
	Disabled bool   `json:"disabled"`
	Events   uint64 `json:"events"`
	Failures uint64 `json:"failures"`
	StubUp   *bool  `json:"stub_up,omitempty"`
}

// CrashPadView summarizes recovery activity.
type CrashPadView struct {
	Crashes        uint64 `json:"crashes"`
	Byzantine      uint64 `json:"byzantine"`
	Recoveries     uint64 `json:"recoveries"`
	DeepRecoveries uint64 `json:"deep_recoveries"`
	Ignored        uint64 `json:"ignored_events"`
	Transformed    uint64 `json:"transformed_events"`
	Tickets        int    `json:"tickets"`
}

// NetLogView summarizes transaction activity.
type NetLogView struct {
	Committed      uint64 `json:"committed_txns"`
	Rollbacks      uint64 `json:"rollbacks"`
	RolledBackMods uint64 `json:"rolled_back_mods"`
	CounterCache   int    `json:"counter_cache_entries"`
}

// FlowView is one rule in the /flows document.
type FlowView struct {
	Priority    uint16 `json:"priority"`
	Match       string `json:"match"`
	Actions     int    `json:"actions"`
	PacketCount uint64 `json:"packets"`
	ByteCount   uint64 `json:"bytes"`
	IdleTimeout uint16 `json:"idle_timeout"`
	HardTimeout uint16 `json:"hard_timeout"`
}

// Handler serves the status API for a stack and its simulated network
// (net may be nil when the switches are remote) on the stack's debug
// mux (see flightrec.NewDebugMux), so one server answers everything:
//
//	GET /status        -> Summary JSON
//	GET /tickets       -> problem tickets, rendered text
//	GET /flows?dpid=N  -> FlowView JSON for one switch
//	GET /metrics, /debug/traces, /debug/autopsy, /debug/pprof/
func Handler(st *core.Stack, net *netsim.Network) http.Handler {
	mux := flightrec.NewDebugMux(st.Flight, st.Metrics, st.Autopsies)
	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, buildSummary(st))
	})
	mux.HandleFunc("/tickets", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if st.CrashPad == nil {
			fmt.Fprintln(w, "crash-pad not enabled in this mode")
			return
		}
		tickets := st.CrashPad.Tickets()
		if len(tickets) == 0 {
			fmt.Fprintln(w, "no tickets")
			return
		}
		for _, tk := range tickets {
			fmt.Fprintln(w, tk.Render())
		}
	})
	mux.HandleFunc("/flows", func(w http.ResponseWriter, r *http.Request) {
		if net == nil {
			http.Error(w, "no simulated network attached", http.StatusNotFound)
			return
		}
		dpid, err := strconv.ParseUint(r.URL.Query().Get("dpid"), 10, 64)
		if err != nil {
			http.Error(w, "dpid query parameter required", http.StatusBadRequest)
			return
		}
		sw := net.Switch(dpid)
		if sw == nil {
			http.Error(w, "no such switch", http.StatusNotFound)
			return
		}
		flows := []FlowView{}
		for _, e := range sw.Table().Entries() {
			flows = append(flows, FlowView{
				Priority:    e.Priority,
				Match:       e.Match.String(),
				Actions:     len(e.Actions),
				PacketCount: e.PacketCount,
				ByteCount:   e.ByteCount,
				IdleTimeout: e.IdleTimeout,
				HardTimeout: e.HardTimeout,
			})
		}
		writeJSON(w, flows)
	})
	return mux
}

func buildSummary(st *core.Stack) Summary {
	s := Summary{
		Mode:            st.Mode.String(),
		ControllerUp:    !st.Controller.Crashed(),
		Switches:        st.Controller.Switches(),
		EventsProcessed: st.Controller.Processed.Load(),
	}
	for _, name := range st.Controller.Apps() {
		events, failures := st.Controller.AppStats(name)
		row := AppStatus{
			Name:     name,
			Disabled: st.Controller.AppDisabled(name),
			Events:   events,
			Failures: failures,
		}
		if p := st.Proxy(name); p != nil {
			up := p.StubUp()
			row.StubUp = &up
		}
		s.Apps = append(s.Apps, row)
	}
	if st.CrashPad != nil {
		s.CrashPad = &CrashPadView{
			Crashes:        st.CrashPad.CrashesSeen.Load(),
			Byzantine:      st.CrashPad.ByzantineSeen.Load(),
			Recoveries:     st.CrashPad.Recoveries.Load(),
			DeepRecoveries: st.CrashPad.DeepRecoveries.Load(),
			Ignored:        st.CrashPad.IgnoredEvents.Load(),
			Transformed:    st.CrashPad.TransformedEvents.Load(),
			Tickets:        len(st.CrashPad.Tickets()),
		}
	}
	if st.NetLog != nil {
		s.NetLog = &NetLogView{
			Committed:      st.NetLog.CommittedTxns.Load(),
			Rollbacks:      st.NetLog.Rollbacks.Load(),
			RolledBackMods: st.NetLog.RolledBackMods.Load(),
			CounterCache:   st.NetLog.CounterCacheSize(),
		}
	}
	return s
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
