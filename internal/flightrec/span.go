package flightrec

import (
	"sort"
	"strconv"
	"time"

	"legosdn/internal/trace"
)

// Root makes the sampling decision for a new event. It returns a root
// SpanContext (TraceID set, SpanID zero) when sampled, or the zero
// context otherwise. The decision is made once per event; everything
// downstream keys off SpanContext.Valid.
func (r *Recorder) Root() trace.SpanContext {
	if r == nil || r.threshold == 0 {
		return trace.SpanContext{}
	}
	if r.threshold != ^uint64(0) {
		// Weyl sequence through a splitmix finalizer: a race-free,
		// allocation-free uniform draw.
		x := splitmix64(r.samples.Add(0x9E3779B97F4A7C15))
		if x >= r.threshold {
			return trace.SpanContext{}
		}
	}
	return trace.SpanContext{TraceID: r.newID()}
}

// newID mints a process-unique nonzero id. The seed keeps ids from
// separate processes (proxy vs stub subprocess) from colliding inside
// one trace.
func (r *Recorder) newID() uint64 {
	id := splitmix64(r.ids.Add(1) ^ r.seed)
	if id == 0 {
		id = 1
	}
	return id
}

// Span is one in-flight stage of a trace. A nil *Span (untraced event
// or absent recorder) no-ops on every method.
type Span struct {
	r      *Recorder
	start  time.Time
	rec    Record
	fields SpanFields // rec.SpanFields points here: one allocation per span
}

// StartSpan opens a span under parent. It returns nil — free to carry
// and to End — when the recorder is nil, keeps no span ring (sampling
// off), or the parent is untraced.
func (r *Recorder) StartSpan(parent trace.SpanContext, name string) *Span {
	if r == nil || !parent.Valid() || r.spans.slots == nil {
		return nil
	}
	sp := &Span{r: r, start: time.Now()}
	sp.fields = SpanFields{Span: r.newID(), Parent: parent.SpanID, Name: name}
	sp.rec = Record{TS: sp.start.UnixNano(), Trace: parent.TraceID, SpanFields: &sp.fields}
	return sp
}

// Context returns the span's own context, for parenting children
// (including across the AppVisor wire). Zero for a nil span.
func (s *Span) Context() trace.SpanContext {
	if s == nil {
		return trace.SpanContext{}
	}
	return trace.SpanContext{TraceID: s.rec.Trace, SpanID: s.fields.Span}
}

// Attr annotates the span. Returns s for chaining; nil-safe.
func (s *Span) Attr(key, value string) *Span {
	if s != nil {
		s.fields.Attrs = append(s.fields.Attrs, Attr{Key: key, Value: value})
	}
	return s
}

// AttrInt annotates the span with an integer value.
func (s *Span) AttrInt(key string, value int64) *Span {
	if s != nil {
		s.fields.Attrs = append(s.fields.Attrs, Attr{Key: key, Value: strconv.FormatInt(value, 10)})
	}
	return s
}

// End completes the span and publishes it to the span ring. Calling End
// more than once records the span more than once; don't.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.fields.Dur = time.Since(s.start)
	if s.r.spans.publish(&s.rec) {
		s.r.SpanLaps.Add(1)
	}
	s.r.Spans.Add(1)
}

// SpanRecords copies every completed span the span ring holds, ordered
// by start time.
func (r *Recorder) SpanRecords() []Record {
	if r == nil {
		return nil
	}
	out := r.spans.records()
	sort.Slice(out, func(i, j int) bool { return out[i].TS < out[j].TS })
	return out
}

// Trace is one trace's spans, oldest first.
type Trace struct {
	ID    uint64
	Spans []Record
}

// Traces groups the span ring by trace, most recent trace first,
// returning at most limit traces (0 = all).
func (r *Recorder) Traces(limit int) []Trace {
	var order []*Trace
	byID := make(map[uint64]*Trace)
	for _, sp := range r.SpanRecords() {
		tr := byID[sp.Trace]
		if tr == nil {
			tr = &Trace{ID: sp.Trace}
			byID[sp.Trace] = tr
			order = append(order, tr)
		}
		tr.Spans = append(tr.Spans, sp)
	}
	out := make([]Trace, 0, len(order))
	for i := len(order) - 1; i >= 0 && (limit <= 0 || len(out) < limit); i-- {
		out = append(out, *order[i])
	}
	return out
}

// splitmix64 is the SplitMix64 finalizer: a cheap, well-mixed 64-bit
// permutation.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
