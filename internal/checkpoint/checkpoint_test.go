package checkpoint

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestStorePutLatestBefore(t *testing.T) {
	s := NewStore(0)
	s.Put("app", 1, []byte("one"))
	s.Put("app", 5, []byte("five"))
	s.Put("app", 9, []byte("nine"))
	s.Put("other", 2, []byte("x"))

	if got := s.Latest("app"); got == nil || string(got.State) != "nine" {
		t.Fatalf("latest = %+v", got)
	}
	if got := s.Latest("missing"); got != nil {
		t.Fatal("missing app should have no checkpoint")
	}
	if got := s.Before("app", 7); got == nil || got.Seq != 5 {
		t.Fatalf("before(7) = %+v", got)
	}
	if got := s.Before("app", 9); got == nil || got.Seq != 9 {
		t.Fatalf("before(9) = %+v", got)
	}
	if got := s.Before("app", 0); got != nil {
		t.Fatal("before(0) should be nil")
	}
	if h := s.History("app"); len(h) != 3 || h[0].Seq != 1 {
		t.Fatalf("history %v", h)
	}
	if s.Saves != 4 || s.Bytes != uint64(len("one")+len("five")+len("nine")+1) {
		t.Fatalf("saves=%d bytes=%d", s.Saves, s.Bytes)
	}
	s.Drop("app")
	if s.Latest("app") != nil {
		t.Fatal("drop failed")
	}
}

func TestStoreBounded(t *testing.T) {
	s := NewStore(3)
	for i := uint64(1); i <= 10; i++ {
		s.Put("a", i, []byte{byte(i)})
	}
	h := s.History("a")
	if len(h) != 3 || h[0].Seq != 8 || h[2].Seq != 10 {
		t.Fatalf("history %v", h)
	}
}

func TestStateCopied(t *testing.T) {
	s := NewStore(0)
	buf := []byte("mutable")
	s.Put("a", 1, buf)
	buf[0] = 'X'
	if string(s.Latest("a").State) != "mutable" {
		t.Fatal("store aliased caller's buffer")
	}
}

func TestEveryN(t *testing.T) {
	p := NewEveryN(3)
	want := []bool{true, false, false, true, false, false, true}
	for i, w := range want {
		if got := p.Advance("a", 1); got != w {
			t.Fatalf("event %d: got %v want %v", i, got, w)
		}
	}
	// Independent cadence per app.
	if !p.Advance("b", 1) {
		t.Fatal("fresh app should checkpoint immediately")
	}
	// Reset restarts the cadence.
	p.Reset("a")
	if !p.Advance("a", 1) {
		t.Fatal("reset should force a checkpoint")
	}
	if NewEveryN(0).N() != 1 {
		t.Fatal("n<1 should clamp to 1")
	}
}

// Property: advancing the cadence over k events at once reports a
// checkpoint exactly when one of those events is an N-th event, and
// leaves the cadence k events on.
func TestEveryNAdvanceOverBatches(t *testing.T) {
	for n := 1; n <= 5; n++ {
		p, events := NewEveryN(n), 0
		for step, k := range []int{3, 1, 4, 2, 7, 1, 1, 5, 6, 2} {
			want := false
			for e := events; e < events+k; e++ {
				want = want || e%n == 0
			}
			events += k
			if got := p.Advance("a", k); got != want {
				t.Fatalf("n=%d step %d (k=%d): Advance = %v, want %v", n, step, k, got, want)
			}
		}
		if got, want := p.Advance("a", 1), events%n == 0; got != want {
			t.Fatalf("n=%d: cadence at event %d is %v, want %v", n, events, got, want)
		}
	}
}

// Property: Before(seq) returns the newest checkpoint with Seq <= seq.
func TestQuickBeforeIsNewestNotAfter(t *testing.T) {
	f := func(seqs []uint64, q uint64) bool {
		s := NewStore(0)
		var sorted []uint64
		last := uint64(0)
		for _, x := range seqs {
			last += x%100 + 1 // strictly increasing
			sorted = append(sorted, last)
			s.Put("a", last, nil)
		}
		got := s.Before("a", q)
		var want uint64
		found := false
		for _, x := range sorted {
			if x <= q {
				want, found = x, true
			}
		}
		if !found {
			return got == nil
		}
		return got != nil && got.Seq == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestStoreString(t *testing.T) {
	s := NewStore(0)
	s.Put("a", 1, []byte("zz"))
	if !strings.Contains(s.String(), "saves=1") {
		t.Fatalf("String() = %q", s.String())
	}
}

// Regression: Latest and Before used to return pointers into the stored
// history, so a recovery path that patched the returned State bytes (or
// the struct) corrupted the checkpoint every later rollback restored.
func TestAccessorsReturnDefensiveCopies(t *testing.T) {
	s := NewStore(0)
	s.Put("a", 1, []byte("pristine"))
	s.Put("a", 5, []byte("newest"))

	cp := s.Latest("a")
	cp.State[0] = 'X'
	cp.Seq = 999
	if got := s.Latest("a"); string(got.State) != "newest" || got.Seq != 5 {
		t.Fatalf("mutating Latest's result corrupted the store: %+v", got)
	}

	cp = s.Before("a", 1)
	cp.State[0] = 'X'
	if got := s.Before("a", 1); string(got.State) != "pristine" {
		t.Fatalf("mutating Before's result corrupted the store: %q", got.State)
	}

	for _, h := range s.History("a") {
		if len(h.State) > 0 {
			h.State[0] = '!'
		}
	}
	if got := s.Latest("a"); string(got.State) != "newest" {
		t.Fatalf("mutating History's results corrupted the store: %q", got.State)
	}
}

// The sink sees every Put and Drop, in order, under the store's
// serialization.
type recordingSink struct {
	got   []Checkpoint
	drops []string
	err   error
}

func (r *recordingSink) AppendCheckpoint(cp Checkpoint) error {
	r.got = append(r.got, cp)
	return r.err
}

func (r *recordingSink) AppendDrop(app string) error {
	r.drops = append(r.drops, app)
	return r.err
}

func TestSinkObservesPutsInOrder(t *testing.T) {
	s := NewStore(0)
	sink := &recordingSink{}
	s.SetSink(sink)
	s.Put("a", 1, []byte("one"))
	s.Put("b", 2, []byte("two"))
	s.RestorePut("c", 3, []byte("restored"), time.Unix(1, 0)) // bypasses the sink
	if len(sink.got) != 2 || sink.got[0].Seq != 1 || sink.got[1].Seq != 2 {
		t.Fatalf("sink saw %+v", sink.got)
	}
	if s.Saves != 2 {
		t.Fatalf("RestorePut must not count as a save: saves=%d", s.Saves)
	}
	if cp := s.Latest("c"); cp == nil || string(cp.State) != "restored" {
		t.Fatalf("RestorePut lost: %+v", cp)
	}
}

// Regression: Drop used to leave the sink unnotified, so the durable
// mirror kept the dropped history and a compaction resurrected it.
func TestDropNotifiesSink(t *testing.T) {
	s := NewStore(0)
	sink := &recordingSink{}
	s.SetSink(sink)
	s.Put("a", 1, []byte("one"))
	s.Drop("a")
	if len(sink.drops) != 1 || sink.drops[0] != "a" {
		t.Fatalf("sink drops = %v, want [a]", sink.drops)
	}
	// Dropping resets the delta cadence: the next put must be a full
	// image, not a delta against evicted state.
	s.SetDeltaEvery(4)
	s.Put("a", 2, []byte("after-drop"))
	if last := sink.got[len(sink.got)-1]; last.Delta {
		t.Fatalf("first put after drop was a delta: %+v", last)
	}
}

// A failing sink must be counted, never silent: every lost checkpoint
// (and drop) increments the sink-error counter.
func TestSinkErrorsCounted(t *testing.T) {
	s := NewStore(0)
	sink := &recordingSink{err: fmt.Errorf("disk gone")}
	s.SetSink(sink)
	s.Put("a", 1, []byte("one"))
	s.Put("a", 2, []byte("two"))
	s.Drop("a")
	if got := s.SinkErrors.Load(); got != 3 {
		t.Fatalf("sink errors = %d, want 3", got)
	}
}
