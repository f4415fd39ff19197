package core

import (
	"testing"
	"time"

	"legosdn/internal/flightrec"
	"legosdn/internal/netsim"
)

// findTraceWith returns the first trace containing a span with the
// given name, or nil.
func findTraceWith(traces []flightrec.Trace, name string) *flightrec.Trace {
	for i := range traces {
		for _, sp := range traces[i].Spans {
			if sp.Name == name {
				return &traces[i]
			}
		}
	}
	return nil
}

func spanNames(tr *flightrec.Trace) map[string]int {
	names := make(map[string]int)
	for _, sp := range tr.Spans {
		names[sp.Name]++
	}
	return names
}

func spanAttr(sp flightrec.Record, key string) (string, bool) {
	for _, a := range sp.Attrs {
		if a.Key == key {
			return a.Value, true
		}
	}
	return "", false
}

// TestCrashRecoveryTrace is the observability acceptance test: one
// injected poisoned event must yield ONE trace whose spans cover every
// stage of the crash-recovery pipeline — controller dispatch, the
// AppVisor wire round trip (including the stub side, which joins the
// trace via the ids carried in the wire header), the aborted NetLog
// transaction, and Crash-Pad's restore and replay.
func TestCrashRecoveryTrace(t *testing.T) {
	rec := flightrec.New(flightrec.Options{SampleRate: 1})
	stack := NewStack(Config{
		Mode:   ModeLegoSDN,
		Flight: rec,
		// A wide checkpoint interval so the crash arrives with a
		// non-empty replay suffix: checkpoint before event 1, healthy
		// events 2..n recorded, the poisoned event triggers a restore
		// to the old checkpoint followed by replay of 2..n.
		CheckpointEvery: 100,
	})
	defer stack.Close()
	if err := stack.AddApp(newMultiRuleApp(6666)); err != nil {
		t.Fatal(err)
	}

	n := netsim.Single(2, nil)
	if err := stack.ConnectNetwork(n); err != nil {
		t.Fatal(err)
	}
	h1, h2 := n.Host("h1"), n.Host("h2")

	// Two healthy events (checkpoint + replay suffix), then the poison.
	n.SendFromHost("h1", netsim.TCPFrame(h1, h2, 1, 80, nil))
	n.SendFromHost("h1", netsim.TCPFrame(h1, h2, 2, 80, nil))
	waitFor(t, "healthy rules", func() bool { return n.Switch(1).Table().Len() == 6 })
	n.SendFromHost("h1", netsim.TCPFrame(h1, h2, 9999, 6666, nil))
	waitFor(t, "recovery", func() bool { return stack.CrashPad.Recoveries.Load() >= 1 })

	// The poisoned event's trace is the one holding the NetLog abort.
	// Span records land at End(), so poll until the full pipeline is
	// visible in the ring.
	var poisoned *flightrec.Trace
	waitFor(t, "complete crash-recovery trace", func() bool {
		poisoned = findTraceWith(rec.Traces(0), "netlog.abort")
		if poisoned == nil {
			return false
		}
		names := spanNames(poisoned)
		for _, want := range []string{
			"controller.dispatch", "appvisor.relay", "stub.handle",
			"netlog.txn", "netlog.abort",
			"crashpad.recover", "crashpad.restore", "crashpad.replay",
		} {
			if names[want] == 0 {
				return false
			}
		}
		return true
	})

	names := spanNames(poisoned)
	// The restore replays both healthy events under the same trace.
	if names["crashpad.replay"] < 2 {
		t.Fatalf("crashpad.replay spans = %d, want >= 2", names["crashpad.replay"])
	}
	// Every span shares the poisoned event's trace id.
	for _, sp := range poisoned.Spans {
		if sp.Trace != poisoned.ID {
			t.Fatalf("span %q has trace %x, want %x", sp.Name, sp.Trace, poisoned.ID)
		}
	}
	// The aborted transaction span says so.
	var sawAborted bool
	for _, sp := range poisoned.Spans {
		if sp.Name != "netlog.txn" {
			continue
		}
		if state, ok := spanAttr(sp, "state"); ok && state == "aborted" {
			sawAborted = true
		}
	}
	if !sawAborted {
		t.Fatal("no netlog.txn span with state=aborted")
	}
	// The recovery decision is recorded on the recover span.
	for _, sp := range poisoned.Spans {
		if sp.Name == "crashpad.recover" {
			if _, ok := spanAttr(sp, "decision"); !ok {
				t.Fatal("crashpad.recover span missing decision attr")
			}
			if _, ok := spanAttr(sp, "outcome"); !ok {
				t.Fatal("crashpad.recover span missing outcome attr")
			}
		}
	}
	// The stub joined the proxy's trace over the wire: its handler span
	// must be parented inside this trace, not a root.
	for _, sp := range poisoned.Spans {
		if sp.Name == "stub.handle" && sp.Parent == 0 {
			t.Fatal("stub.handle span is an orphan root: wire propagation broken")
		}
	}
}

// TestTracingDisabledIsInert: the default recorder (sampling off)
// records no spans and changes nothing — the whole pipeline runs
// untraced.
func TestTracingDisabledIsInert(t *testing.T) {
	stack := NewStack(Config{Mode: ModeLegoSDN})
	defer stack.Close()
	if err := stack.AddApp(newPortPoisonApp(6666)); err != nil {
		t.Fatal(err)
	}
	n := netsim.Single(2, nil)
	if err := stack.ConnectNetwork(n); err != nil {
		t.Fatal(err)
	}
	h1, h2 := n.Host("h1"), n.Host("h2")
	n.SendFromHost("h1", netsim.TCPFrame(h1, h2, 1, 80, nil))
	n.SendFromHost("h1", netsim.TCPFrame(h1, h2, 1, 6666, nil))
	waitFor(t, "recovery without tracer", func() bool {
		return stack.CrashPad.Recoveries.Load() >= 1
	})
	if stack.Controller.Crashed() {
		t.Fatal("controller died")
	}
}

// TestZeroSamplingRecordsNothing: a live recorder at rate 0 must keep
// the span ring empty while events flow — the always-cheap guarantee.
func TestZeroSamplingRecordsNothing(t *testing.T) {
	rec := flightrec.New(flightrec.Options{SampleRate: 0})
	stack := NewStack(Config{Mode: ModeLegoSDN, Flight: rec})
	defer stack.Close()
	if err := stack.AddApp(newPortPoisonApp(6666)); err != nil {
		t.Fatal(err)
	}
	n := netsim.Single(2, nil)
	if err := stack.ConnectNetwork(n); err != nil {
		t.Fatal(err)
	}
	h1, h2 := n.Host("h1"), n.Host("h2")
	n.SendFromHost("h1", netsim.TCPFrame(h1, h2, 1, 80, nil))
	waitFor(t, "delivery", func() bool { return h2.ReceivedCount() >= 1 })
	time.Sleep(10 * time.Millisecond)
	if got := len(rec.SpanRecords()); got != 0 {
		t.Fatalf("rate-0 recorder recorded %d spans", got)
	}
}
