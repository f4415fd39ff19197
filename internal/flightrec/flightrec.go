// Package flightrec is LegoSDN's one event-record pipeline: bounded,
// lock-free ring buffers of compact structured records. Every layer of
// the control loop writes evidence records unconditionally — cheap
// enough to leave on in production — so that when an app crashes, a
// recovery runs, or a chaos invariant breaks, the stack can assemble an
// autopsy from evidence that already exists instead of hoping the
// failure replays under higher sampling. Sampled events additionally
// leave spans for each stage they cross (controller dispatch, AppVisor
// round trip, NetLog transaction, Crash-Pad recovery); completed spans
// are records too, published to a ring of their own so that even 100%
// sampling never overwrites crash evidence.
//
// Design constraints, in order:
//
//   - Always on, near-zero cost. One record is one atomic claim, one
//     small allocation and one atomic pointer swap, which the race
//     detector certifies. No locks on the write path, ever. With
//     sampling off a span costs one branch and never allocates.
//   - Bounded. Each layer owns a fixed power-of-two ring; the oldest
//     record is overwritten when full. Memory is capacity * pointer
//     per layer plus the live records themselves.
//   - Correlatable. Records carry the app name, trace id, transaction
//     id and event seq, so an autopsy can pull "the last N records per
//     layer that touch this failure" without any global index.
//   - Wire-propagatable. A span's position is a trace.SpanContext, two
//     uint64s that ride AppVisor's event datagrams, so a stub process
//     joins the trace its proxy started.
package flightrec

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"legosdn/internal/metrics"
)

// Layer identifies which subsystem wrote a record.
type Layer uint8

// Layers, one ring each.
const (
	LayerController Layer = iota
	LayerAppVisor
	LayerNetLog
	LayerCrashPad
	LayerCheckpoint
	NumLayers
)

func (l Layer) String() string {
	switch l {
	case LayerController:
		return "controller"
	case LayerAppVisor:
		return "appvisor"
	case LayerNetLog:
		return "netlog"
	case LayerCrashPad:
		return "crashpad"
	case LayerCheckpoint:
		return "checkpoint"
	default:
		return fmt.Sprintf("layer(%d)", int(l))
	}
}

// Kind is what happened.
type Kind uint8

// Record kinds.
const (
	KindEventDispatched Kind = iota
	KindQuarantine
	KindTxnBegin
	KindTxnCommit
	KindTxnAbort
	KindCheckpointPut
	KindCheckpointRestore
	KindPolicyDecision
	KindCrashDetected
	KindStubRespawn
	KindStubKill
	KindReplay
	KindRecoveryDone
)

func (k Kind) String() string {
	switch k {
	case KindEventDispatched:
		return "event-dispatched"
	case KindQuarantine:
		return "quarantine"
	case KindTxnBegin:
		return "txn-begin"
	case KindTxnCommit:
		return "txn-commit"
	case KindTxnAbort:
		return "txn-abort"
	case KindCheckpointPut:
		return "checkpoint-put"
	case KindCheckpointRestore:
		return "checkpoint-restore"
	case KindPolicyDecision:
		return "policy-decision"
	case KindCrashDetected:
		return "crash-detected"
	case KindStubRespawn:
		return "stub-respawn"
	case KindStubKill:
		return "stub-kill"
	case KindReplay:
		return "replay"
	case KindRecoveryDone:
		return "recovery-done"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Record is one compact fact. Zero-valued correlation fields mean "not
// applicable"; App empty means the record belongs to no single app.
type Record struct {
	Seq   uint64 `json:"seq"`          // recorder-global order
	TS    int64  `json:"ts_unix_nano"` // wall-clock nanoseconds
	Layer Layer  `json:"layer"`        // which ring
	Kind  Kind   `json:"kind"`         // what happened
	// N is a kind-specific count (ops committed, txns replayed, ...).
	// Hot-path writers use it instead of formatting a Note: a typed
	// field costs nothing, fmt.Sprintf costs ~100ns and two allocs.
	// 32 bits wide so it packs beside Layer and Kind.
	N     int32  `json:"n,omitempty"`
	App   string `json:"app,omitempty"` // owning app, if any
	Trace uint64 `json:"trace,omitempty"`
	Txn   uint64 `json:"txn,omitempty"`
	EvSeq uint64 `json:"ev_seq,omitempty"`
	DPID  uint64 `json:"dpid,omitempty"`
	Note  string `json:"note,omitempty"`

	// SpanFields is set only on completed spans, whose TS is the span's
	// start and Trace its trace id; nil on evidence records, so read
	// its promoted fields (Span, Parent, Dur, Name, Attrs) only from
	// SpanRecords and Traces. Behind a pointer, the span fields keep
	// an evidence record a 96-byte allocation.
	*SpanFields
}

// SpanFields is what a completed span adds to its Record.
type SpanFields struct {
	Span   uint64        `json:"span"`
	Parent uint64        `json:"parent,omitempty"` // 0 at the trace root
	Dur    time.Duration `json:"dur"`
	Name   string        `json:"name"`
	Attrs  []Attr        `json:"attrs,omitempty"`
}

// Attr is one key/value annotation on a span (recovery decision,
// policy chosen, app name, transaction op count).
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// String renders one record the way autopsy text does.
func (r Record) String() string {
	s := fmt.Sprintf("#%d %s %s", r.Seq, r.Layer, r.Kind)
	if r.App != "" {
		s += " app=" + r.App
	}
	if r.EvSeq != 0 {
		s += fmt.Sprintf(" seq=%d", r.EvSeq)
	}
	if r.DPID != 0 {
		s += fmt.Sprintf(" dpid=%d", r.DPID)
	}
	if r.Trace != 0 {
		s += fmt.Sprintf(" trace=%016x", r.Trace)
	}
	if r.Txn != 0 {
		s += fmt.Sprintf(" txn=%d", r.Txn)
	}
	if r.N != 0 {
		s += fmt.Sprintf(" n=%d", r.N)
	}
	if r.Note != "" {
		s += " " + r.Note
	}
	return s
}

// ring is one bounded record buffer: writers claim slot indexes with
// next.Add and publish with an atomic pointer swap.
type ring struct {
	next  atomic.Uint64
	slots []atomic.Pointer[Record]
	mask  uint64
}

func (rg *ring) init(capacity int) {
	rg.slots = make([]atomic.Pointer[Record], capacity)
	rg.mask = uint64(capacity - 1)
}

// publish stores rec and reports whether it overwrote an older record.
func (rg *ring) publish(rec *Record) bool {
	idx := (rg.next.Add(1) - 1) & rg.mask
	return rg.slots[idx].Swap(rec) != nil
}

// records copies every record the ring holds, in slot order.
func (rg *ring) records() []Record {
	out := make([]Record, 0, len(rg.slots))
	for i := range rg.slots {
		if rec := rg.slots[i].Load(); rec != nil {
			out = append(out, *rec)
		}
	}
	return out
}

// spanRingFactor sizes the span ring against one layer's ring: a
// sampled event leaves a span per stage it crosses.
const spanRingFactor = 8

// Options tunes a Recorder.
type Options struct {
	// PerLayer is each layer's ring capacity, rounded up to a power of
	// two (default 2048). Total memory is NumLayers * PerLayer slots,
	// plus spanRingFactor * PerLayer span slots when sampling is on.
	PerLayer int
	// SampleRate is the fraction of events sampled into traces, in
	// [0, 1]. 0 (the default) records no spans and keeps no span ring;
	// 1 traces everything.
	SampleRate float64
}

// Recorder is the flight recorder. A nil *Recorder is fully usable:
// every method no-ops, so layers wire recording unconditionally and pay
// one branch when it is absent.
type Recorder struct {
	rings [NumLayers]ring
	spans ring // completed spans; no slots when sampling is off
	seq   atomic.Uint64

	threshold uint64        // sample iff mix(counter) < threshold; ^0 = always
	samples   atomic.Uint64 // root sampling counter (Weyl sequence state)
	ids       atomic.Uint64 // id counter, mixed into unique span/trace ids
	seed      uint64

	// Records counts evidence publishes; Laps counts evidence-ring
	// overwrites (the recorder working as designed, but visible so a
	// postmortem knows how far back the evidence reaches). Spans and
	// SpanLaps count the same for the span ring.
	Records  metrics.Counter
	Laps     metrics.Counter
	Spans    metrics.Counter
	SpanLaps metrics.Counter
}

// New creates a Recorder.
func New(opts Options) *Recorder {
	if opts.PerLayer <= 0 {
		opts.PerLayer = 2048
	}
	capacity := ceilPow2(opts.PerLayer)
	r := &Recorder{seed: splitmix64(uint64(time.Now().UnixNano()))}
	for i := range r.rings {
		r.rings[i].init(capacity)
	}
	switch {
	case opts.SampleRate >= 1:
		r.threshold = ^uint64(0)
	case opts.SampleRate > 0:
		r.threshold = uint64(opts.SampleRate * float64(^uint64(0)))
	}
	if r.threshold != 0 {
		r.spans.init(spanRingFactor * capacity)
	}
	return r
}

// Instrument registers the recorder's counters into reg.
func (r *Recorder) Instrument(reg *metrics.Registry) {
	if r == nil || reg == nil {
		return
	}
	reg.RegisterCounter("legosdn_flightrec_records_total",
		"flight-recorder records written across all layers", &r.Records)
	reg.RegisterCounter("legosdn_flightrec_laps_total",
		"flight-recorder slots overwritten by ring wrap-around", &r.Laps)
	reg.RegisterCounter("legosdn_trace_spans_total",
		"spans recorded into the span ring", &r.Spans)
	reg.RegisterCounter("legosdn_trace_spans_dropped_total",
		"span-ring slots overwritten by ring wrap-around", &r.SpanLaps)
}

// Record stamps rec with a global sequence number and wall-clock time
// and publishes it into its layer's ring. Safe from any goroutine;
// no-op on a nil recorder or an out-of-range layer.
func (r *Recorder) Record(rec Record) {
	if r == nil || rec.Layer >= NumLayers {
		return
	}
	rec.Seq = r.seq.Add(1)
	rec.TS = time.Now().UnixNano()
	if r.rings[rec.Layer].publish(&rec) {
		r.Laps.Add(1)
	}
	r.Records.Add(1)
}

// Snapshot copies every record currently held, across all layers,
// ordered by global sequence.
func (r *Recorder) Snapshot() []Record {
	if r == nil {
		return nil
	}
	var out []Record
	for l := range r.rings {
		out = append(out, r.rings[l].records()...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// LayerRecords returns the last n records of one layer, oldest first
// (n <= 0 returns all held).
func (r *Recorder) LayerRecords(l Layer, n int) []Record {
	if r == nil || l >= NumLayers {
		return nil
	}
	recs := r.rings[l].records()
	sort.Slice(recs, func(i, j int) bool { return recs[i].Seq < recs[j].Seq })
	if n > 0 && len(recs) > n {
		recs = recs[len(recs)-n:]
	}
	return recs
}

// Correlated pulls the evidence for one failure: for each layer, the
// last perLayer records that plausibly belong to it — matching the app
// name, the trace id or the transaction id, or carrying no app at all
// (layer-global facts like txn lifecycle under an empty trace). The
// result maps layer name to records, oldest first; empty layers are
// omitted. app == "" matches every record.
func (r *Recorder) Correlated(app string, traceID, txnID uint64, perLayer int) map[string][]Record {
	if r == nil {
		return nil
	}
	if perLayer <= 0 {
		perLayer = 16
	}
	out := make(map[string][]Record, NumLayers)
	for l := Layer(0); l < NumLayers; l++ {
		recs := r.LayerRecords(l, 0)
		kept := recs[:0]
		for _, rec := range recs {
			switch {
			case app == "" || rec.App == "" || rec.App == app:
			case traceID != 0 && rec.Trace == traceID:
			case txnID != 0 && rec.Txn == txnID:
			default:
				continue
			}
			kept = append(kept, rec)
		}
		if len(kept) > perLayer {
			kept = kept[len(kept)-perLayer:]
		}
		if len(kept) > 0 {
			out[l.String()] = append([]Record(nil), kept...)
		}
	}
	return out
}

func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}
