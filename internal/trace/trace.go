// Package trace carries LegoSDN's trace identity. The paper's whole
// value proposition is what happens to one network event when an app
// crashes — checkpoint, detect, rollback, replay or transform — so each
// injected event may be sampled into a trace, and every stage it
// crosses opens a span under that trace. Sampling and span recording
// live in internal/flightrec; this package holds only what the other
// layers pass around:
//
//   - SpanContext, two uint64s small enough to ride AppVisor's event
//     datagrams (wireVersion 3) and controller.Event, so a stub process
//     joins the same trace its proxy started.
//   - A slog handler that stamps trace and crash correlation ids onto
//     log records, with its context helpers.
package trace

// SpanContext identifies a position in a trace: the trace itself and
// the span that new child spans should hang under. The zero value means
// "untraced"; it is what unsampled events carry, and every tracing
// call accepts it for free.
type SpanContext struct {
	TraceID uint64
	SpanID  uint64 // parent for children; 0 at the trace root
}

// Valid reports whether the context belongs to a sampled trace.
func (c SpanContext) Valid() bool { return c.TraceID != 0 }
