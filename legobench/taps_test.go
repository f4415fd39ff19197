package main

import (
	"bytes"
	"testing"
	"time"

	"legosdn/internal/controller"
)

type baseApp struct{ handled int }

func (a *baseApp) Name() string                          { return "fake" }
func (a *baseApp) Subscriptions() []controller.EventKind { return nil }
func (a *baseApp) HandleEvent(controller.Context, controller.Event) error {
	a.handled++
	return nil
}

type snapPart struct{}

func (snapPart) Snapshot() ([]byte, error) { return []byte("s"), nil }
func (snapPart) Restore([]byte) error      { return nil }

type batchPart struct{}

func (batchPart) HandleEventBatch(controller.Context, []controller.Event) error { return nil }

type upPart struct{}

func (upPart) StubUp() bool { return true }

type respawnPart struct{}

func (respawnPart) Respawn() error { return nil }

func TestWrapAppPreservesOptionalInterfaces(t *testing.T) {
	base := &baseApp{}
	cases := []struct {
		app                controller.App
		snap, batch, lifec bool
	}{
		{base, false, false, false},
		{struct {
			*baseApp
			snapPart
		}{base, snapPart{}}, true, false, false},
		{struct {
			*baseApp
			batchPart
		}{base, batchPart{}}, false, true, false},
		{struct {
			*baseApp
			upPart
			respawnPart
		}{base, upPart{}, respawnPart{}}, false, false, true},
		{struct {
			*baseApp
			snapPart
			batchPart
		}{base, snapPart{}, batchPart{}}, true, true, false},
		{struct {
			*baseApp
			snapPart
			upPart
			respawnPart
		}{base, snapPart{}, upPart{}, respawnPart{}}, true, false, true},
		{struct {
			*baseApp
			batchPart
			upPart
			respawnPart
		}{base, batchPart{}, upPart{}, respawnPart{}}, false, true, true},
		{struct {
			*baseApp
			snapPart
			batchPart
			upPart
			respawnPart
		}{base, snapPart{}, batchPart{}, upPart{}, respawnPart{}}, true, true, true},
	}
	for i, c := range cases {
		at, err := wrapApp(c.app, newTracker())
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		w := at.wrapped
		if _, ok := w.(controller.Snapshotter); ok != c.snap {
			t.Errorf("case %d: Snapshotter=%v, want %v", i, ok, c.snap)
		}
		if _, ok := w.(controller.BatchApp); ok != c.batch {
			t.Errorf("case %d: BatchApp=%v, want %v", i, ok, c.batch)
		}
		_, up := w.(interface{ StubUp() bool })
		_, re := w.(interface{ Respawn() error })
		if up != c.lifec || re != c.lifec {
			t.Errorf("case %d: StubUp=%v Respawn=%v, want %v", i, up, re, c.lifec)
		}
		before := base.handled
		if err := w.HandleEvent(nil, controller.Event{}); err != nil || base.handled != before+1 {
			t.Errorf("case %d: HandleEvent did not reach the wrapped app", i)
		}
		if s, ok := w.(controller.Snapshotter); ok {
			if state, err := s.Snapshot(); err != nil || string(state) != "s" {
				t.Errorf("case %d: Snapshot not forwarded: %q %v", i, state, err)
			}
		}
	}
	half := struct {
		*baseApp
		upPart
	}{base, upPart{}}
	if _, err := wrapApp(half, newTracker()); err == nil {
		t.Errorf("an app with StubUp but no Respawn was wrapped without complaint")
	}
}

type plainRunner struct{}

func (plainRunner) RunEvent(controller.App, controller.Context, controller.Event) *controller.AppFailure {
	return nil
}

type batchingRunner struct{ plainRunner }

func (batchingRunner) RunEventBatch(controller.App, controller.Context, []controller.Event) *controller.AppFailure {
	return nil
}

func TestWrapRunnerPreservesBatchRunner(t *testing.T) {
	if _, ok := wrapRunner(plainRunner{}, newTracker()).(controller.BatchRunner); ok {
		t.Errorf("runner tap claims BatchRunner over a runner without it")
	}
	if _, ok := wrapRunner(batchingRunner{}, newTracker()).(controller.BatchRunner); !ok {
		t.Errorf("runner tap hides the wrapped runner's BatchRunner")
	}
}

// TestTracedAndUntracedRunsAgree runs flow-setup with the same seed and
// event counts with tracing off and on: the interposers must not change
// what the stack does.
func TestTracedAndUntracedRunsAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("builds full stacks")
	}
	w, _ := findWorkload("flow-setup")
	run := func(traced bool) *bench {
		b := newBench(&bytes.Buffer{}, 7, 20*time.Second, traced, t.TempDir())
		b.limit = 120
		if err := w.run(b); err != nil {
			t.Fatal(err)
		}
		r := b.report(b.acc)
		if !r.Correct {
			t.Fatalf("traced=%v run failed its checks:\n%s", traced, b.out.(*bytes.Buffer).String())
		}
		return b
	}
	plain, traced := run(false), run(true)
	if plain.attempted != traced.attempted || plain.tr.completed.Load() != traced.tr.completed.Load() {
		t.Errorf("untraced run: %d injected, %d completed; traced: %d injected, %d completed",
			plain.attempted, plain.tr.completed.Load(), traced.attempted, traced.tr.completed.Load())
	}
	if len(plain.fingerprints) != flowSwitches {
		t.Fatalf("%d fingerprints, want %d", len(plain.fingerprints), flowSwitches)
	}
	for i := range plain.fingerprints {
		if plain.fingerprints[i] != traced.fingerprints[i] {
			t.Errorf("switch %d ends with different flow tables traced and untraced", i+1)
		}
	}
	if traced.layer["appvisor.rpcs_per_event"].Value < 2 {
		t.Errorf("traced run saw %v RPCs per event through the app tap, want >= 2",
			traced.layer["appvisor.rpcs_per_event"].Value)
	}
}
