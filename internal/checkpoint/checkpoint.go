// Package checkpoint is LegoSDN's CRIU substitute: a store of SDN-App
// state snapshots taken before event processing, plus the every-N
// checkpointing policy from §5 of the paper ("rather than checkpointing
// after every event, we can checkpoint after every few events... and
// replay all events since that checkpoint").
//
// The paper's prototype freezes whole JVM processes with CRIU; here an
// app exposes its state through controller.Snapshotter and the store
// keeps the serialized images. The measurable quantity — per-event
// checkpoint cost versus recovery-time replay cost — is the same
// trade-off §5 discusses.
//
// Beyond the every-N cadence the store supports incremental storage: a
// full image every DeltaEvery-th put and byte-range deltas between
// (delta.go). Accessors reconstruct full images transparently, so the
// recovery paths never see a delta; the reconstruction depth is bounded
// by DeltaEvery-1 (the replay-window bound on recovery cost).
package checkpoint

import (
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"time"

	"legosdn/internal/metrics"
)

// Checkpoint is one stored app image. When Delta is set, State holds a
// byte-range patch (delta.go) against the state of the same app's
// checkpoint with sequence number BaseSeq — always the immediately
// preceding put. Store accessors only ever return full images; delta
// checkpoints appear outside the store solely on the Sink path, where
// the durable backend journals them verbatim.
type Checkpoint struct {
	App   string
	Seq   uint64 // sequence number of the first event NOT reflected in State
	State []byte
	Taken time.Time

	Delta   bool
	BaseSeq uint64
}

// clone deep-copies the checkpoint so accessors never hand out State
// slices aliased with stored history: a caller that mutates the
// returned bytes (e.g. patching a snapshot before replay) must not
// corrupt the store's copy.
func (c *Checkpoint) clone() *Checkpoint {
	cp := *c
	cp.State = append([]byte(nil), c.State...)
	return &cp
}

// Sink observes every store mutation the moment it happens; the durable
// backend implements it to journal Puts (full or delta) and Drops to
// disk. Checkpoints are passed by value and must be treated as
// read-only — the State slice is the store's own copy. A sink may
// process asynchronously, but it must preserve per-store call order.
type Sink interface {
	AppendCheckpoint(cp Checkpoint) error
	// AppendDrop records that every checkpoint for app was discarded,
	// so a compaction after the drop cannot resurrect them.
	AppendDrop(app string) error
}

// Store keeps bounded per-app checkpoint histories. It is safe for
// concurrent use.
type Store struct {
	mu         sync.Mutex
	histories  map[string][]*Checkpoint
	maxPerApp  int
	deltaEvery int               // <=1 stores every put as a full image
	deltaRuns  map[string]int    // puts since the last full image, per app
	lastState  map[string][]byte // latest reconstructed full image, per app
	sink       Sink

	// Saves and Bytes count stored checkpoints and their cumulative
	// (post-encoding) size; DeltaSaves counts the subset stored as
	// deltas. All three feed the overhead benchmarks.
	Saves      uint64
	Bytes      uint64
	DeltaSaves uint64

	// SinkErrors counts sink appends that failed — each one is a
	// checkpoint (or drop) that never became durable. Exposed as
	// legosdn_checkpoint_sink_errors_total via Instrument.
	SinkErrors metrics.Counter

	warnMu   sync.Mutex
	logger   *slog.Logger
	lastWarn time.Time
}

// NewStore creates a store keeping at most maxPerApp checkpoints per app
// (default 64 when <= 0). History depth matters for the §5 extension:
// multi-event failures roll back to older checkpoints.
func NewStore(maxPerApp int) *Store {
	if maxPerApp <= 0 {
		maxPerApp = 64
	}
	return &Store{
		histories: make(map[string][]*Checkpoint),
		maxPerApp: maxPerApp,
		deltaRuns: make(map[string]int),
		lastState: make(map[string][]byte),
	}
}

// SetDeltaEvery switches the store to incremental mode: a full image
// every n-th put per app, byte-range deltas between. n <= 1 restores
// full-image-per-put. Reconstruction cost on recovery is bounded by
// n-1 delta applications. Configure before traffic flows.
func (s *Store) SetDeltaEvery(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n < 1 {
		n = 1
	}
	s.deltaEvery = n
}

// DeltaEvery reports the configured full-image interval (1 = every put
// is a full image).
func (s *Store) DeltaEvery() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.deltaEvery < 1 {
		return 1
	}
	return s.deltaEvery
}

// SetSink installs (or, with nil, removes) the persistence sink. The
// sink is invoked synchronously under the store's lock, so the sink
// call order always matches history order; install it before traffic
// flows.
func (s *Store) SetSink(sink Sink) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sink = sink
}

// SetLogger installs the logger for rate-limited durability warnings.
func (s *Store) SetLogger(lg *slog.Logger) {
	s.warnMu.Lock()
	defer s.warnMu.Unlock()
	s.logger = lg
}

// Instrument registers the store's durability-loss counter.
func (s *Store) Instrument(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	reg.RegisterCounter("legosdn_checkpoint_sink_errors_total",
		"checkpoint sink appends that failed (checkpoints that never became durable)", &s.SinkErrors)
}

// NoteSinkError counts one failed sink append and emits a rate-limited
// warning. The synchronous Put path calls it directly; an asynchronous
// sink (the durable backend's ordered queue) calls it from its worker
// when a journal append fails after Put already returned — the
// "silent durability loss" signal.
func (s *Store) NoteSinkError(err error) {
	s.SinkErrors.Add(1)
	s.warnMu.Lock()
	lg := s.logger
	throttled := time.Since(s.lastWarn) < time.Second
	if !throttled {
		s.lastWarn = time.Now()
	}
	s.warnMu.Unlock()
	if lg != nil && !throttled {
		lg.Warn("checkpoint persistence failing; durability degraded",
			"err", err, "sink_errors", s.SinkErrors.Load())
	}
}

// Put stores a checkpoint of app state taken just before the event with
// sequence number seq. In incremental mode the stored (and journaled)
// bytes are a delta against the previous put unless the cadence calls
// for a full image.
func (s *Store) Put(app string, seq uint64, state []byte) *Checkpoint {
	cp := &Checkpoint{App: app, Seq: seq, State: append([]byte(nil), state...), Taken: time.Now()}
	s.mu.Lock()
	if s.deltaEvery > 1 {
		if base, ok := s.lastState[app]; ok && s.deltaRuns[app] > 0 {
			h := s.histories[app]
			cp.Delta = true
			cp.BaseSeq = h[len(h)-1].Seq
			cp.State = EncodeDelta(base, state)
			s.DeltaSaves++
		}
		s.deltaRuns[app] = (s.deltaRuns[app] + 1) % s.deltaEvery
	}
	s.lastState[app] = append([]byte(nil), state...)
	s.insertLocked(cp)
	s.Saves++
	s.Bytes += uint64(len(cp.State))
	sink := s.sink
	var sinkErr error
	if sink != nil {
		// Persistence degrades durability, never availability — but a
		// failed journal append must not be silent.
		sinkErr = sink.AppendCheckpoint(*cp)
	}
	s.mu.Unlock()
	if sinkErr != nil {
		s.NoteSinkError(sinkErr)
	}
	return cp
}

// RestorePut inserts a checkpoint recovered from a persistent backend,
// bypassing the sink (the record is already on disk) and the save
// counters (it is not a new checkpoint). The state must be a full
// image — the durable backend reconstructs deltas before restoring —
// and callers must supply records in chronological order.
func (s *Store) RestorePut(app string, seq uint64, state []byte, taken time.Time) {
	cp := &Checkpoint{App: app, Seq: seq, State: append([]byte(nil), state...), Taken: taken}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lastState[app] = append([]byte(nil), state...)
	s.insertLocked(cp)
}

func (s *Store) insertLocked(cp *Checkpoint) {
	h := append(s.histories[cp.App], cp)
	if len(h) > s.maxPerApp {
		cut := len(h) - s.maxPerApp
		// The new oldest entry must be a full image or later
		// reconstructions would chase an evicted base. Rebase it before
		// the chain below it disappears.
		if h[cut].Delta {
			if full, err := reconstruct(h, cut); err == nil {
				rb := *h[cut]
				rb.State, rb.Delta, rb.BaseSeq = full, false, 0
				h[cut] = &rb
			} else {
				// Unreconstructable chain (a store bug, not an input): cut
				// at the next full image instead of keeping broken deltas.
				for cut < len(h) && h[cut].Delta {
					cut++
				}
			}
		}
		h = h[cut:]
	}
	s.histories[cp.App] = h
}

// reconstruct returns the full image of history entry idx, applying the
// delta chain forward from the nearest full image at or below idx. The
// chain length is bounded by DeltaEvery-1.
func reconstruct(h []*Checkpoint, idx int) ([]byte, error) {
	base := idx
	for base >= 0 && h[base].Delta {
		base--
	}
	if base < 0 {
		return nil, fmt.Errorf("checkpoint: no full image below %s seq %d", h[idx].App, h[idx].Seq)
	}
	state := h[base].State
	for i := base + 1; i <= idx; i++ {
		var err error
		state, err = ApplyDelta(state, h[i].State)
		if err != nil {
			return nil, err
		}
	}
	if base == idx {
		state = append([]byte(nil), state...)
	}
	return state, nil
}

// cloneFullLocked returns entry idx as a full-image defensive copy.
func (s *Store) cloneFullLocked(h []*Checkpoint, idx int) *Checkpoint {
	cp := h[idx]
	if !cp.Delta {
		return cp.clone()
	}
	state, err := reconstruct(h, idx)
	if err != nil {
		return nil
	}
	out := *cp
	out.State, out.Delta, out.BaseSeq = state, false, 0
	return &out
}

// Latest returns the most recent checkpoint for app, or nil. The
// returned checkpoint is a full-image defensive copy: mutating it (or
// its State bytes) cannot corrupt the stored history.
func (s *Store) Latest(app string) *Checkpoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	h := s.histories[app]
	if len(h) == 0 {
		return nil
	}
	return s.cloneFullLocked(h, len(h)-1)
}

// Before returns the most recent checkpoint whose Seq is <= seq, i.e.
// the image to restore when every event from Seq onward must be
// reconsidered. Returns nil when no checkpoint is old enough. Like
// Latest, the result is a full-image defensive copy.
func (s *Store) Before(app string, seq uint64) *Checkpoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	h := s.histories[app]
	for i := len(h) - 1; i >= 0; i-- {
		if h[i].Seq <= seq {
			return s.cloneFullLocked(h, i)
		}
	}
	return nil
}

// History returns the app's checkpoints, oldest first, as full-image
// defensive copies.
func (s *Store) History(app string) []*Checkpoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	h := s.histories[app]
	out := make([]*Checkpoint, 0, len(h))
	for i := range h {
		if cp := s.cloneFullLocked(h, i); cp != nil {
			out = append(out, cp)
		}
	}
	return out
}

// Apps returns every app with stored history, sorted, so a persistent
// backend can serialize the store deterministically.
func (s *Store) Apps() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.histories))
	for app := range s.histories {
		out = append(out, app)
	}
	sort.Strings(out)
	return out
}

// Drop discards all checkpoints for app, resets its delta cadence, and
// notifies the sink so the durable journal forgets the history too —
// without the drop record, a compaction after a drop would snapshot the
// old mirror and resurrect the checkpoints on the next restart.
func (s *Store) Drop(app string) {
	s.mu.Lock()
	delete(s.histories, app)
	delete(s.deltaRuns, app)
	delete(s.lastState, app)
	sink := s.sink
	var sinkErr error
	if sink != nil {
		sinkErr = sink.AppendDrop(app)
	}
	s.mu.Unlock()
	if sinkErr != nil {
		s.NoteSinkError(sinkErr)
	}
}

// String summarizes the store for logs.
func (s *Store) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return fmt.Sprintf("checkpoint.Store{apps=%d saves=%d bytes=%d}", len(s.histories), s.Saves, s.Bytes)
}

// EveryN decides when to checkpoint: every Nth event per app. N=1 is
// the paper's base design (checkpoint before every event); larger N
// trades recovery-time replay for lower steady-state overhead (§5).
type EveryN struct {
	mu     sync.Mutex
	n      int
	counts map[string]int
}

// NewEveryN creates the policy; n < 1 is treated as 1.
func NewEveryN(n int) *EveryN {
	if n < 1 {
		n = 1
	}
	return &EveryN{n: n, counts: make(map[string]int)}
}

// N reports the configured interval.
func (p *EveryN) N() int { return p.n }

// Advance moves app's cadence over its next k events and reports
// whether any of them needs a checkpoint first; for a batched delivery
// that is one checkpoint before the whole batch.
func (p *EveryN) Advance(app string, k int) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	c := p.counts[app]
	p.counts[app] = c + k
	// Some count in [c, c+k) is a multiple of n.
	return k > 0 && (c%p.n == 0 || c%p.n+k > p.n)
}

// Reset restarts app's cadence (used after a recovery, which always
// re-checkpoints immediately). It also frees the app's counter entry,
// so dropping an app does not leak cadence state.
func (p *EveryN) Reset(app string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.counts, app)
}
