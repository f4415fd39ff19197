package flightrec

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"legosdn/internal/metrics"
)

// WriteText renders recent traces as an indented text report: one block
// per trace, spans ordered by start, children indented under parents —
// the quick operator view of where an event spent its time.
func (r *Recorder) WriteText(w io.Writer, limit int) {
	traces := r.Traces(limit)
	if len(traces) == 0 {
		fmt.Fprintln(w, "no traces recorded")
		return
	}
	for _, tr := range traces {
		fmt.Fprintf(w, "trace %016x (%d span(s))\n", tr.ID, len(tr.Spans))
		depth := spanDepths(tr.Spans)
		for _, sp := range tr.Spans {
			indent := strings.Repeat("  ", depth[sp.Span])
			fmt.Fprintf(w, "  %s%-24s %12v  start=%s span=%016x",
				indent, sp.Name, sp.Dur, time.Unix(0, sp.TS).UTC().Format("15:04:05.000000"), sp.Span)
			for _, a := range sp.Attrs {
				fmt.Fprintf(w, " %s=%s", a.Key, a.Value)
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w)
	}
}

// spanDepths computes each span's depth under the trace root (parent 0)
// for indentation. Orphan parents (e.g. spans evicted from the ring)
// get depth 0.
func spanDepths(spans []Record) map[uint64]int {
	parent := make(map[uint64]uint64, len(spans))
	for _, sp := range spans {
		parent[sp.Span] = sp.Parent
	}
	depth := make(map[uint64]int, len(spans))
	for _, sp := range spans {
		d, p := 0, sp.Parent
		for p != 0 && d < 16 {
			next, ok := parent[p]
			if !ok {
				break
			}
			d++
			p = next
		}
		depth[sp.Span] = d
	}
	return depth
}

// chromeEvent is one Chrome trace_event record ("X" = complete event),
// loadable by chrome://tracing and Perfetto.
type chromeEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`  // microseconds
	Dur  float64           `json:"dur"` // microseconds
	Pid  int               `json:"pid"`
	Tid  string            `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

type chromeFile struct {
	TraceEvents []chromeEvent `json:"traceEvents"`
	DisplayUnit string        `json:"displayTimeUnit"`
}

// WriteChrome exports the span ring as Chrome trace_event JSON. Each
// trace becomes one named track (tid), so chrome://tracing shows every
// event's pipeline as its own row with stage spans nested by time.
func (r *Recorder) WriteChrome(w io.Writer) error {
	spans := r.SpanRecords()
	file := chromeFile{TraceEvents: make([]chromeEvent, 0, len(spans)), DisplayUnit: "ns"}
	for _, sp := range spans {
		args := map[string]string{
			"span":   fmt.Sprintf("%016x", sp.Span),
			"parent": fmt.Sprintf("%016x", sp.Parent),
		}
		for _, a := range sp.Attrs {
			args[a.Key] = a.Value
		}
		file.TraceEvents = append(file.TraceEvents, chromeEvent{
			Name: sp.Name,
			Ph:   "X",
			Ts:   float64(sp.TS) / 1e3,
			Dur:  float64(sp.Dur.Nanoseconds()) / 1e3,
			Pid:  1,
			Tid:  fmt.Sprintf("trace %016x", sp.Trace),
			Args: args,
		})
	}
	return json.NewEncoder(w).Encode(file)
}

// TracesHandler serves the span ring at /debug/traces:
//
//	GET /debug/traces                 recent traces as text
//	GET /debug/traces?limit=20        at most 20 traces
//	GET /debug/traces?format=chrome   Chrome trace_event JSON for
//	                                  chrome://tracing / Perfetto
func (r *Recorder) TracesHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if r == nil {
			http.Error(w, "tracing disabled", http.StatusNotFound)
			return
		}
		if req.URL.Query().Get("format") == "chrome" {
			w.Header().Set("Content-Type", "application/json")
			_ = r.WriteChrome(w)
			return
		}
		limit, _ := strconv.Atoi(req.URL.Query().Get("limit"))
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		r.WriteText(w, limit)
	})
}

// NewDebugMux assembles the one observability endpoint: Prometheus
// metrics, the span ring, autopsies and net/http/pprof profiles —
// everything needed to join "what happened" (traces, autopsies) with
// "where did the CPU go" (pprof) on one port. Callers add their own
// routes (status.Handler adds /status, /tickets and /flows).
//
//	/metrics             Prometheus exposition (when reg != nil)
//	/debug/traces        recent traces (text or chrome JSON)
//	/debug/autopsy       autopsy reports (text, ?format=json, ?id=N)
//	/debug/pprof/...     CPU, heap, goroutine, block, mutex profiles
func NewDebugMux(rec *Recorder, reg *metrics.Registry, autopsies *Store) *http.ServeMux {
	mux := http.NewServeMux()
	if reg != nil {
		mux.Handle("/metrics", reg.Handler())
	}
	mux.Handle("/debug/traces", rec.TracesHandler())
	mux.Handle("/debug/autopsy", autopsies.HTTPHandler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
