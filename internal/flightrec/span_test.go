package flightrec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"legosdn/internal/metrics"
	"legosdn/internal/trace"
)

func TestNilRecorderSpansNoOp(t *testing.T) {
	var r *Recorder
	if sc := r.Root(); sc.Valid() {
		t.Fatal("nil recorder sampled a root")
	}
	sp := r.StartSpan(trace.SpanContext{TraceID: 1}, "x")
	if sp != nil {
		t.Fatal("nil recorder returned a span")
	}
	sp.Attr("k", "v").AttrInt("n", 7)
	sp.End() // must not panic
	if got := sp.Context(); got.Valid() {
		t.Fatal("nil span has valid context")
	}
	if r.SpanRecords() != nil {
		t.Fatal("nil recorder span snapshot non-nil")
	}
}

func TestSamplingRates(t *testing.T) {
	always := New(Options{SampleRate: 1})
	for i := 0; i < 100; i++ {
		if !always.Root().Valid() {
			t.Fatal("rate 1 skipped a root")
		}
	}

	never := New(Options{})
	for i := 0; i < 100; i++ {
		if never.Root().Valid() {
			t.Fatal("rate 0 sampled a root")
		}
	}
	// Sampling off keeps no span ring: even a parent sampled elsewhere
	// records nothing.
	if sp := never.StartSpan(trace.SpanContext{TraceID: 1}, "x"); sp != nil {
		t.Fatal("rate 0 recorder opened a span")
	}

	half := New(Options{SampleRate: 0.5})
	n := 0
	for i := 0; i < 10000; i++ {
		if half.Root().Valid() {
			n++
		}
	}
	if n < 4000 || n > 6000 {
		t.Fatalf("rate 0.5 sampled %d/10000", n)
	}
}

func TestSpanRecordingAndHierarchy(t *testing.T) {
	r := New(Options{SampleRate: 1, PerLayer: 8})
	root := r.Root()
	parent := r.StartSpan(root, "parent").Attr("app", "route")
	child := r.StartSpan(parent.Context(), "child").AttrInt("ops", 3).AttrInt("delta", -42)
	child.End()
	parent.End()

	spans := r.SpanRecords()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	byName := map[string]Record{}
	for _, sp := range spans {
		byName[sp.Name] = sp
		if sp.Trace != root.TraceID {
			t.Fatalf("span %q trace %x, want %x", sp.Name, sp.Trace, root.TraceID)
		}
		if sp.TS == 0 {
			t.Fatalf("span %q has no start time", sp.Name)
		}
	}
	p, c := byName["parent"], byName["child"]
	if p.Parent != 0 {
		t.Fatalf("parent span has parent %x", p.Parent)
	}
	if c.Parent != p.Span {
		t.Fatalf("child parent %x, want %x", c.Parent, p.Span)
	}
	if len(p.Attrs) != 1 || p.Attrs[0].Key != "app" || p.Attrs[0].Value != "route" {
		t.Fatalf("parent attrs %v", p.Attrs)
	}
	if len(c.Attrs) != 2 || c.Attrs[0].Value != "3" || c.Attrs[1].Value != "-42" {
		t.Fatalf("child attrs %v", c.Attrs)
	}
	// Spans are not evidence: they neither count as records nor land
	// in any layer ring.
	if got := r.Records.Load(); got != 0 {
		t.Fatalf("Records=%d after spans only, want 0", got)
	}
	if got := len(r.Snapshot()); got != 0 {
		t.Fatalf("evidence snapshot holds %d spans", got)
	}
}

func TestSpanRingOverwriteCountsDrops(t *testing.T) {
	r := New(Options{SampleRate: 1, PerLayer: 1}) // span ring: spanRingFactor slots
	root := r.Root()
	for i := 0; i < 100; i++ {
		r.StartSpan(root, "s").End()
	}
	if got := r.Spans.Load(); got != 100 {
		t.Fatalf("spans counter %d, want 100", got)
	}
	if got := r.SpanLaps.Load(); got != 100-spanRingFactor {
		t.Fatalf("span laps %d, want %d", got, 100-spanRingFactor)
	}
	if got := len(r.SpanRecords()); got != spanRingFactor {
		t.Fatalf("snapshot %d spans, want %d", got, spanRingFactor)
	}
}

// TestSpanRingIsolation: the span ring is separate from the evidence
// rings, so tracing every event never overwrites crash evidence and
// never moves the evidence counters.
func TestSpanRingIsolation(t *testing.T) {
	const perLayer = 16
	reg := metrics.NewRegistry()
	r := New(Options{SampleRate: 1, PerLayer: perLayer})
	r.Instrument(reg)
	for l := Layer(0); l < NumLayers; l++ {
		for i := 0; i < perLayer; i++ {
			r.Record(Record{Layer: l, Kind: KindEventDispatched, EvSeq: uint64(i)})
		}
	}
	evidence := r.Records.Load()

	// Twice the span ring, so it laps.
	for i := 0; i < 2*spanRingFactor*perLayer; i++ {
		sp := r.StartSpan(r.Root(), "controller.dispatch")
		r.StartSpan(sp.Context(), "netlog.txn").End()
		sp.End()
	}
	if r.SpanLaps.Load() == 0 {
		t.Fatal("span ring never lapped")
	}
	for l := Layer(0); l < NumLayers; l++ {
		recs := r.LayerRecords(l, 0)
		if len(recs) != perLayer {
			t.Fatalf("%s ring holds %d records, want %d", l, len(recs), perLayer)
		}
		for i, rec := range recs {
			if rec.EvSeq != uint64(i) || rec.SpanFields != nil {
				t.Fatalf("%s slot %d holds %+v, want evidence ev_seq=%d", l, i, rec, i)
			}
		}
	}
	if got := r.Records.Load(); got != evidence {
		t.Fatalf("Records moved from %d to %d under spans", evidence, got)
	}
	if r.Laps.Load() != 0 {
		t.Fatalf("evidence rings lapped: %d", r.Laps.Load())
	}
	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	if want := fmt.Sprintf("legosdn_flightrec_records_total %d\n", evidence); !strings.Contains(buf.String(), want) {
		t.Fatalf("exported records counter moved, want %q:\n%s", want, buf.String())
	}
}

func TestTracesGroupingAndLimit(t *testing.T) {
	r := New(Options{SampleRate: 1, PerLayer: 8})
	var roots []trace.SpanContext
	for i := 0; i < 3; i++ {
		root := r.Root()
		roots = append(roots, root)
		r.StartSpan(root, "a").End()
		r.StartSpan(root, "b").End()
	}
	traces := r.Traces(0)
	if len(traces) != 3 {
		t.Fatalf("got %d traces, want 3", len(traces))
	}
	for _, g := range traces {
		if len(g.Spans) != 2 {
			t.Fatalf("trace %x has %d spans, want 2", g.ID, len(g.Spans))
		}
	}
	if traces[0].ID != roots[2].TraceID {
		t.Fatalf("most recent trace first: got %x, want %x", traces[0].ID, roots[2].TraceID)
	}
	if got := len(r.Traces(2)); got != 2 {
		t.Fatalf("limit 2 returned %d traces", got)
	}
}

func TestConcurrentRecording(t *testing.T) {
	r := New(Options{SampleRate: 1, PerLayer: 128})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				sp := r.StartSpan(r.Root(), "work")
				r.StartSpan(sp.Context(), "inner").End()
				sp.End()
			}
		}()
	}
	wg.Wait()
	if got := r.Spans.Load(); got != 8*200*2 {
		t.Fatalf("spans counter %d, want %d", got, 8*200*2)
	}
	// Snapshot while more writes land must not race (run with -race).
	var wg2 sync.WaitGroup
	wg2.Add(1)
	go func() {
		defer wg2.Done()
		for i := 0; i < 100; i++ {
			r.StartSpan(r.Root(), "late").End()
		}
	}()
	for i := 0; i < 20; i++ {
		r.SpanRecords()
	}
	wg2.Wait()
}

// TestConcurrentSpansRecordsAndExport publishes spans and evidence
// records from many goroutines through tiny rings while /debug/traces
// is exported in both formats: the race detector checks publication
// against the exporters, and every export must stay well formed.
func TestConcurrentSpansRecordsAndExport(t *testing.T) {
	r := New(Options{SampleRate: 1, PerLayer: 4})
	mux := NewDebugMux(r, nil, nil)
	const writers, perWriter = 8, 500

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				sp := r.StartSpan(r.Root(), "controller.dispatch").AttrInt("seq", int64(i))
				r.Record(Record{Layer: Layer(w % int(NumLayers)), Kind: KindEventDispatched, Trace: sp.Context().TraceID})
				sp.End()
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for exporting := true; exporting; {
		select {
		case <-done:
			exporting = false
		default:
		}
		for _, path := range []string{"/debug/traces?limit=5", "/debug/traces?format=chrome"} {
			rec := httptest.NewRecorder()
			mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
			if rec.Code != 200 {
				t.Fatalf("GET %s -> %d", path, rec.Code)
			}
			if strings.Contains(path, "chrome") && !json.Valid(rec.Body.Bytes()) {
				t.Fatalf("chrome export is not valid JSON mid-write")
			}
		}
	}
	if got := r.Spans.Load(); got != writers*perWriter {
		t.Fatalf("spans counter %d, want %d", got, writers*perWriter)
	}
	if got := r.Records.Load(); got != writers*perWriter {
		t.Fatalf("records counter %d, want %d", got, writers*perWriter)
	}
}

func TestWriteTextAndChrome(t *testing.T) {
	r := New(Options{SampleRate: 1, PerLayer: 8})
	root := r.Root()
	sp := r.StartSpan(root, "controller.dispatch").Attr("kind", "packet_in")
	r.StartSpan(sp.Context(), "netlog.txn").Attr("state", "aborted").End()
	sp.End()

	var text bytes.Buffer
	r.WriteText(&text, 0)
	for _, want := range []string{"controller.dispatch", "netlog.txn", "state=aborted", "kind=packet_in"} {
		if !strings.Contains(text.String(), want) {
			t.Fatalf("text export missing %q:\n%s", want, text.String())
		}
	}

	var chrome bytes.Buffer
	if err := r.WriteChrome(&chrome); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome.Bytes(), &file); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	if len(file.TraceEvents) != 2 {
		t.Fatalf("chrome export has %d events, want 2", len(file.TraceEvents))
	}
	for _, ev := range file.TraceEvents {
		if ev.Ph != "X" {
			t.Fatalf("event %q ph %q, want X", ev.Name, ev.Ph)
		}
	}
}

func TestTracesHandler(t *testing.T) {
	r := New(Options{SampleRate: 1, PerLayer: 8})
	r.StartSpan(r.Root(), "s").End()

	rec := httptest.NewRecorder()
	r.TracesHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "trace ") {
		t.Fatalf("text endpoint: code %d body %q", rec.Code, rec.Body.String())
	}

	rec = httptest.NewRecorder()
	r.TracesHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?format=chrome", nil))
	if rec.Code != 200 || !json.Valid(rec.Body.Bytes()) {
		t.Fatalf("chrome endpoint: code %d valid=%v", rec.Code, json.Valid(rec.Body.Bytes()))
	}

	var nilRec *Recorder
	rec = httptest.NewRecorder()
	nilRec.TracesHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	if rec.Code != 404 {
		t.Fatalf("nil recorder endpoint code %d, want 404", rec.Code)
	}
}

func TestInstrumentSpanCounters(t *testing.T) {
	reg := metrics.NewRegistry()
	r := New(Options{SampleRate: 1, PerLayer: 1})
	r.Instrument(reg)
	for i := 0; i < 10; i++ {
		r.StartSpan(r.Root(), "s").End()
	}
	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	if !strings.Contains(buf.String(), "legosdn_trace_spans_total 10") {
		t.Fatalf("spans counter not exported:\n%s", buf.String())
	}
	if want := fmt.Sprintf("legosdn_trace_spans_dropped_total %d", 10-spanRingFactor); !strings.Contains(buf.String(), want) {
		t.Fatalf("span laps counter not exported as %q:\n%s", want, buf.String())
	}
	if !strings.Contains(buf.String(), "legosdn_flightrec_records_total 0") {
		t.Fatalf("spans moved the evidence counter:\n%s", buf.String())
	}
}

func TestCeilPow2(t *testing.T) {
	cases := map[int]int{1: 1, 2: 2, 3: 4, 8: 8, 9: 16, 1000: 1024}
	for in, want := range cases {
		if got := ceilPow2(in); got != want {
			t.Fatalf("ceilPow2(%d) = %d, want %d", in, got, want)
		}
	}
}
