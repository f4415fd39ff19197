package chaos

import (
	"strings"
	"testing"

	"legosdn/internal/metrics"
)

// Every library scenario must hold the paper's system-level invariants
// under its fault mix.
func TestScenarios(t *testing.T) {
	if len(Library()) < 10 {
		t.Fatalf("library has %d scenarios, want >= 10", len(Library()))
	}
	for _, sc := range Library() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			rep := sc.Run(1234, nil)
			for _, iv := range rep.Invariants {
				if iv.Err != nil {
					t.Errorf("invariant %s violated: %v", iv.Name, iv.Err)
				}
			}
			if t.Failed() {
				t.Logf("report:\n%s", rep.Render())
			}
		})
	}
}

// Faulty scenarios must actually exercise their fault points — a chaos
// harness that never fires is vacuous.
func TestScenariosFireFaults(t *testing.T) {
	for _, name := range []string{"av-drop", "av-corrupt", "av-kill", "app-crash-replay", "netlog-inverse-fail"} {
		sc, ok := Find(name)
		if !ok {
			t.Fatalf("library scenario %q missing", name)
		}
		rep := sc.Run(1234, nil)
		total := 0
		for _, c := range rep.Fired {
			total += c
		}
		if total == 0 {
			t.Errorf("scenario %s fired no faults at seed 1234", name)
		}
	}
}

// The parallel scenario must exercise what it exists for: deliveries
// that batch, and armed crashes inside them. With a checkpoint before
// every batch, a replay happens only for the events before a crash in
// the middle of a batch.
func TestParallelScenarioCrashesMidBatch(t *testing.T) {
	sc, ok := Find("parallel-batch-crash")
	if !ok {
		t.Fatal("library scenario parallel-batch-crash missing")
	}
	reg := metrics.NewRegistry()
	rep := sc.Run(1234, reg)
	if rep.Failed() {
		t.Fatalf("invariants failed:\n%s", rep.Render())
	}
	snap := reg.Snapshot()
	bs := snap.Histograms["legosdn_controller_batch_size_events"]
	if bs.Count == 0 || bs.Sum/float64(bs.Count) <= 1 {
		t.Fatalf("deliveries did not batch: %d deliveries, %.0f events", bs.Count, bs.Sum)
	}
	if rep.Fired["app/panic"] == 0 {
		t.Fatal("no armed crash fired")
	}
	if snap.Counters["legosdn_crashpad_replayed_events_total"] == 0 {
		t.Fatal("no crash landed in the middle of a batch")
	}
}

// The core reproducibility promise: the same seed replays the same
// fault schedule and the same invariant report, byte for byte.
func TestScenariosSameSeedByteIdentical(t *testing.T) {
	for _, sc := range Library() {
		if !sc.Deterministic {
			continue
		}
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			a := sc.Run(99, nil)
			b := sc.Run(99, nil)
			if a.ScheduleFingerprint != b.ScheduleFingerprint {
				t.Errorf("fault schedules differ:\n--- run 1 ---\n%s--- run 2 ---\n%s",
					diffHead(a.ScheduleFingerprint, b.ScheduleFingerprint),
					diffHead(b.ScheduleFingerprint, a.ScheduleFingerprint))
			}
			if a.Render() != b.Render() {
				t.Errorf("reports differ:\n--- run 1 ---\n%s--- run 2 ---\n%s", a.Render(), b.Render())
			}
		})
	}
}

// A pinned schedule carrying the full recorded atom set replays a
// deterministic scenario byte for byte — the property the campaign
// minimizer's delta-debugging replays rest on.
func TestScenarioPinnedFullReplay(t *testing.T) {
	sc, ok := Find("av-dup-delay")
	if !ok {
		t.Fatal("library scenario av-dup-delay missing")
	}
	sched := NewSchedule(77)
	orig := sc.RunSchedule(sched, nil)
	atoms := AtomsFromDecisions(sched.Decisions())
	if len(atoms) == 0 {
		t.Fatal("recorded run fired no atoms; replay test is vacuous")
	}
	pinned := NewPinnedSchedule(77, atoms)
	rep := sc.RunSchedule(pinned, nil)
	if rep.ScheduleFingerprint != orig.ScheduleFingerprint {
		t.Errorf("pinned full replay diverged:\n%s", diffHead(rep.ScheduleFingerprint, orig.ScheduleFingerprint))
	}
	if rep.Render() != orig.Render() {
		t.Errorf("pinned replay report differs:\n--- pinned ---\n%s--- original ---\n%s", rep.Render(), orig.Render())
	}
}

// Different seeds must produce different fault schedules (for scenarios
// that draw at all).
func TestScenariosSeedsIndependent(t *testing.T) {
	sc, _ := Find("av-drop")
	a := sc.Run(1, nil)
	b := sc.Run(2, nil)
	if a.ScheduleFingerprint == b.ScheduleFingerprint {
		t.Fatal("seeds 1 and 2 produced the same fault schedule")
	}
}

// diffHead trims two long fingerprints to the first differing region,
// keeping failure output readable.
func diffHead(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			lo := i - 2
			if lo < 0 {
				lo = 0
			}
			hi := i + 3
			if hi > len(al) {
				hi = len(al)
			}
			return strings.Join(al[lo:hi], "\n") + "\n"
		}
	}
	return a
}
