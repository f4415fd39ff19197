package appvisor

import (
	"encoding/binary"
	"errors"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"legosdn/internal/controller"
	"legosdn/internal/openflow"
)

func TestEventBatchRoundTrip(t *testing.T) {
	evs := []controller.Event{
		pktInEvent(1, 1),
		{Seq: 2, Kind: controller.EventSwitchDown, DPID: 7}, // nil message
		pktInEvent(3, 9),
	}
	b, err := encodeEventBatch(evs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeEventBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(evs) {
		t.Fatalf("decoded %d events, want %d", len(got), len(evs))
	}
	for i, ev := range got {
		if ev.Seq != evs[i].Seq || ev.Kind != evs[i].Kind || ev.DPID != evs[i].DPID {
			t.Fatalf("event %d header mismatch: %+v", i, ev)
		}
	}
	if got[1].Message != nil {
		t.Fatal("nil message did not survive the batch")
	}
	if _, ok := got[0].Message.(*openflow.PacketIn); !ok {
		t.Fatalf("message %T", got[0].Message)
	}
}

func TestEventBatchDecodeRejectsTruncation(t *testing.T) {
	b, err := encodeEventBatch([]controller.Event{pktInEvent(1, 1), pktInEvent(2, 2)})
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{1, 3, 10, len(b) - 1} {
		if _, err := decodeEventBatch(b[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

func TestCrashIndexRoundTrip(t *testing.T) {
	plain := encodeCrash("boom", "stack trace here")
	if _, ok := decodeCrashIndex(plain); ok {
		t.Fatal("plain crash payload must not carry an index")
	}
	indexed := appendCrashIndex(plain, 5)
	// The index must be invisible to the v1-style decoder...
	reason, stack, err := decodeCrash(indexed)
	if err != nil || reason != "boom" || stack != "stack trace here" {
		t.Fatalf("indexed crash broke decodeCrash: %q %q %v", reason, stack, err)
	}
	// ...and recoverable by the indexed one.
	idx, ok := decodeCrashIndex(indexed)
	if !ok || idx != 5 {
		t.Fatalf("index: got %d %v", idx, ok)
	}
}

// TestCodecBounds is the table-driven regression for the silent uint16
// truncation bugs: oversized inputs must be rejected, not sheared.
func TestCodecBounds(t *testing.T) {
	longName := strings.Repeat("n", 0x10000)
	manySubs := make([]controller.EventKind, 256)
	manyDpids := make([]uint64, 0x10000)
	manyLinks := make([]controller.LinkInfo, 0x10000)
	longErr := errors.New(strings.Repeat("e", 0x10000))
	manyEvents := make([]controller.Event, 0x10000)

	tests := []struct {
		name    string
		encode  func() error
		wantErr bool
	}{
		{"register/name-max", func() error { _, err := encodeRegister(strings.Repeat("n", 0xffff), nil); return err }, false},
		{"register/name-over", func() error { _, err := encodeRegister(longName, nil); return err }, true},
		{"register/subs-max", func() error { _, err := encodeRegister("a", make([]controller.EventKind, 255)); return err }, false},
		{"register/subs-over", func() error { _, err := encodeRegister("a", manySubs); return err }, true},
		{"status/max", func() error { _, err := encodeStatus(errors.New(strings.Repeat("e", 0xffff))); return err }, false},
		{"status/over", func() error { _, err := encodeStatus(longErr); return err }, true},
		{"switches/over", func() error { _, err := encodeSwitches(manyDpids); return err }, true},
		{"topology/over", func() error { _, err := encodeTopology(manyLinks); return err }, true},
		{"batch/over", func() error { _, err := encodeEventBatch(manyEvents); return err }, true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.encode()
			if tc.wantErr && !errors.Is(err, ErrBadDatagram) {
				t.Fatalf("want ErrBadDatagram, got %v", err)
			}
			if !tc.wantErr && err != nil {
				t.Fatalf("boundary input rejected: %v", err)
			}
		})
	}
}

// TestStatusPayloadClipsOversizedError: the infallible send-path helper
// must still produce a well-formed frame for pathological error text.
func TestStatusPayloadClipsOversizedError(t *testing.T) {
	b := statusPayload(errors.New(strings.Repeat("x", 0x20000)))
	err, rest, ok := decodeStatus(b)
	if !ok || err == nil || len(rest) != 0 {
		t.Fatalf("clipped status unparseable: %v %d %v", err, len(rest), ok)
	}
	if !strings.HasSuffix(err.Error(), "[truncated]") {
		t.Fatalf("missing truncation marker: ...%s", err.Error()[len(err.Error())-32:])
	}
}

// TestProxyBatchDelivery round-trips a coalesced batch through a real
// proxy/stub pair: one datagram, one ack, every event handled in order.
func TestProxyBatchDelivery(t *testing.T) {
	p, ctx := newTestProxy(t, func() controller.App { return &echoApp{} }, ProxyOptions{})
	evs := []controller.Event{pktInEvent(1, 1), pktInEvent(2, 2), pktInEvent(3, 3)}
	if err := p.HandleEventBatch(nil, evs); err != nil {
		t.Fatal(err)
	}
	// echoApp sends one FlowMod per event (plus its one-time Context
	// probe traffic); at least the three FlowMods must have landed.
	if got := ctx.sentCount(); got < 3 {
		t.Fatalf("only %d messages reached the controller", got)
	}
	if got := p.EventsRelayed.Load(); got != 3 {
		t.Fatalf("EventsRelayed = %d, want 3", got)
	}
}

// TestProxyBatchCrashAttribution: a panic on the middle event of a
// batch must be pinned on that event, not the batch head.
func TestProxyBatchCrashAttribution(t *testing.T) {
	p, _ := newTestProxy(t, func() controller.App { return &echoApp{crashOn: 66} }, ProxyOptions{})
	evs := []controller.Event{pktInEvent(1, 1), pktInEvent(2, 66), pktInEvent(3, 3)}
	err := p.HandleEventBatch(nil, evs)
	var ce *CrashError
	if !errors.As(err, &ce) {
		t.Fatalf("want CrashError, got %v", err)
	}
	if !ce.Report.HasEvent || ce.Report.Event.Seq != 2 {
		t.Fatalf("crash attributed to %+v, want seq 2", ce.Report.Event)
	}
	if ce.Report.Reason != CrashReported {
		t.Fatalf("reason = %v, want reported", ce.Report.Reason)
	}
}

// boundaryCtx is a Context that is also a controller.EventBoundary: it
// records each announced index with the number of messages served
// (through the proxy's own Context) by then.
type boundaryCtx struct {
	fakeCtx
	served *fakeCtx
	bmu    sync.Mutex
	begins []int
	sentAt []int
}

func (c *boundaryCtx) BeginEvent(i int) {
	sent := c.served.sentCount()
	c.bmu.Lock()
	defer c.bmu.Unlock()
	c.begins = append(c.begins, i)
	c.sentAt = append(c.sentAt, sent)
}

// flowModPerEvent sends one FlowMod for every event except skip.
func flowModPerEvent(skip uint64) func(controller.Context, controller.Event) error {
	return func(ctx controller.Context, ev controller.Event) error {
		if ev.Seq == skip {
			return nil
		}
		return ctx.SendFlowMod(ev.DPID, &openflow.FlowMod{Match: openflow.MatchAll(),
			Command: openflow.FlowModAdd, Priority: uint16(ev.Seq),
			BufferID: openflow.BufferIDNone, OutPort: openflow.PortNone})
	}
}

// TestProxyBatchAnnouncesEventBoundaries: the proxy reads the batch
// index the stub stamps on each Context call and announces it on the
// caller's Context before serving the call. An event that makes no call
// is never announced, and the first event needs no announcement.
func TestProxyBatchAnnouncesEventBoundaries(t *testing.T) {
	app := &funcApp{name: "bound", handle: flowModPerEvent(2)}
	p, served := newTestProxy(t, func() controller.App { return app }, ProxyOptions{})
	ctx := &boundaryCtx{served: served}
	evs := []controller.Event{pktInEvent(1, 1), pktInEvent(2, 2), pktInEvent(3, 3), pktInEvent(4, 4)}
	if err := p.HandleEventBatch(ctx, evs); err != nil {
		t.Fatal(err)
	}
	ctx.bmu.Lock()
	defer ctx.bmu.Unlock()
	if want := []int{2, 3}; !reflect.DeepEqual(ctx.begins, want) {
		t.Fatalf("announced %v, want %v", ctx.begins, want)
	}
	// Announced before the event's own FlowMod was served.
	if want := []int{1, 2}; !reflect.DeepEqual(ctx.sentAt, want) {
		t.Fatalf("messages sent at each announcement %v, want %v", ctx.sentAt, want)
	}
}

// TestProxyBatchTimeoutBlamesLastCall: a batch whose stub goes silent
// blames the last event that made a Context call, not the batch head.
func TestProxyBatchTimeoutBlamesLastCall(t *testing.T) {
	block := make(chan struct{})
	send := flowModPerEvent(0)
	app := &funcApp{name: "hang", handle: func(ctx controller.Context, ev controller.Event) error {
		err := send(ctx, ev)
		if ev.Seq == 3 {
			<-block
		}
		return err
	}}
	p, served := newTestProxy(t, func() controller.App { return app },
		ProxyOptions{EventTimeout: 150 * time.Millisecond, HeartbeatTimeout: -1})
	defer close(block)
	evs := []controller.Event{pktInEvent(1, 1), pktInEvent(2, 2), pktInEvent(3, 3), pktInEvent(4, 4)}
	err := p.HandleEventBatch(&boundaryCtx{served: served}, evs)
	var ce *CrashError
	if !errors.As(err, &ce) || ce.Report.Reason != CrashTimeout {
		t.Fatalf("want timeout CrashError, got %v", err)
	}
	if ce.Report.Event.Seq != 3 {
		t.Fatalf("timeout blamed seq %d, want 3", ce.Report.Event.Seq)
	}
}

// countingApp bumps runs as a handler starts and done as it ends, with
// a pause between; a snapshot taken mid-handler shows runs != done.
type countingApp struct {
	runs, done uint64
}

func (a *countingApp) Name() string                          { return "counting" }
func (a *countingApp) Subscriptions() []controller.EventKind { return controller.AllEventKinds() }
func (a *countingApp) HandleEvent(controller.Context, controller.Event) error {
	a.runs++
	time.Sleep(30 * time.Millisecond)
	a.done++
	return nil
}
func (a *countingApp) Snapshot() ([]byte, error) {
	b := binary.BigEndian.AppendUint64(nil, a.runs)
	return binary.BigEndian.AppendUint64(b, a.done), nil
}
func (a *countingApp) Restore([]byte) error { return nil }

// TestStubSnapshotWaitsForInFlightEvent: the wire duplicates an event,
// so the stub is still running the copy when the proxy, which got the
// first ack, asks for a snapshot. The snapshot queues behind the copy
// and captures the state after it, never the middle of a handler (under
// -race, a snapshot served beside the handler is also a data race).
func TestStubSnapshotWaitsForInFlightEvent(t *testing.T) {
	p, _ := newTestProxy(t, func() controller.App { return &countingApp{} },
		ProxyOptions{HeartbeatTimeout: -1})
	var duped atomic.Bool
	p.SetWireFault(func(_, _ string, dgType uint8) WireVerdict {
		if dgType == dgEvent && duped.CompareAndSwap(false, true) {
			return WireVerdict{Action: WireDup}
		}
		return WireVerdict{}
	})
	if err := p.HandleEvent(nil, pktInEvent(1, 1)); err != nil {
		t.Fatal(err)
	}
	state, err := p.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	runs, done := binary.BigEndian.Uint64(state), binary.BigEndian.Uint64(state[8:])
	if runs != 2 || done != 2 {
		t.Fatalf("snapshot runs=%d done=%d, want the state after both copies (2, 2)", runs, done)
	}
}
