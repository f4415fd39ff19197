package appvisor

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"legosdn/internal/controller"
	"legosdn/internal/openflow"
)

func TestDatagramRoundTrip(t *testing.T) {
	d := &datagram{Type: dgEvent, ID: 77, Payload: []byte("hello")}
	b, err := d.marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := parseDatagram(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, d) {
		t.Fatalf("got %+v want %+v", got, d)
	}
}

func TestDatagramErrors(t *testing.T) {
	if _, err := parseDatagram([]byte{1, 2}); !errors.Is(err, ErrBadDatagram) {
		t.Error("short datagram should fail")
	}
	b, _ := (&datagram{Type: dgEvent}).marshal()
	b[0] = 0xff // wrong magic
	if _, err := parseDatagram(b); !errors.Is(err, ErrBadDatagram) {
		t.Error("bad magic should fail")
	}
	big := &datagram{Type: dgEvent, Payload: make([]byte, maxDatagram)}
	if _, err := big.marshal(); err == nil {
		t.Error("oversized payload should fail")
	}
}

func TestRegisterRoundTrip(t *testing.T) {
	subs := []controller.EventKind{controller.EventPacketIn, controller.EventSwitchDown}
	enc, err := encodeRegister("learning-switch", subs)
	if err != nil {
		t.Fatal(err)
	}
	name, got, err := decodeRegister(enc)
	if err != nil {
		t.Fatal(err)
	}
	if name != "learning-switch" || !reflect.DeepEqual(got, subs) {
		t.Fatalf("got %q %v", name, got)
	}
}

func TestEventRoundTrip(t *testing.T) {
	pin := &openflow.PacketIn{
		BaseMsg:  openflow.BaseMsg{Xid: 3},
		BufferID: openflow.BufferIDNone,
		InPort:   7,
		Data:     []byte{1, 2, 3},
	}
	ev := controller.Event{Seq: 42, Kind: controller.EventPacketIn, DPID: 9, Message: pin}
	b, err := encodeEvent(ev)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeEvent(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != 42 || got.Kind != controller.EventPacketIn || got.DPID != 9 {
		t.Fatalf("header mismatch: %+v", got)
	}
	if !reflect.DeepEqual(got.Message, pin) {
		t.Fatalf("message mismatch: %#v", got.Message)
	}
}

func TestEventRoundTripNilMessage(t *testing.T) {
	ev := controller.Event{Seq: 1, Kind: controller.EventSwitchDown, DPID: 4}
	b, err := encodeEvent(ev)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeEvent(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Message != nil || got.DPID != 4 {
		t.Fatalf("got %+v", got)
	}
}

func TestStatusRoundTrip(t *testing.T) {
	if err, rest, ok := decodeStatus(statusPayload(nil)); err != nil || len(rest) != 0 || !ok {
		t.Fatal("nil status mangled")
	}
	src := errors.New("boom: something broke")
	err, _, ok := decodeStatus(statusPayload(src))
	if !ok || err == nil || err.Error() != src.Error() {
		t.Fatalf("got %v", err)
	}
	payload := append(statusPayload(nil), 0xca, 0xfe)
	_, rest, ok := decodeStatus(payload)
	if !ok || len(rest) != 2 {
		t.Fatal("trailing payload lost")
	}
}

func TestCrashRoundTrip(t *testing.T) {
	reason, stack, err := decodeCrash(encodeCrash("nil deref", "goroutine 1 [running]:\nmain.main()"))
	if err != nil {
		t.Fatal(err)
	}
	if reason != "nil deref" || stack == "" {
		t.Fatalf("got %q %q", reason, stack)
	}
	if _, _, err := decodeCrash([]byte{0, 0}); err == nil {
		t.Error("short crash payload should fail")
	}
}

func TestRequestRoundTrip(t *testing.T) {
	fm := &openflow.FlowMod{BaseMsg: openflow.BaseMsg{Xid: 1}, Match: openflow.MatchAll(),
		Command: openflow.FlowModAdd, BufferID: openflow.BufferIDNone, OutPort: openflow.PortNone}
	b, err := encodeRequest(request{Op: opSendMessage, Delivery: 77, Index: 513, DPID: 12, Msg: fm})
	if err != nil {
		t.Fatal(err)
	}
	r, err := decodeRequest(b)
	if err != nil {
		t.Fatal(err)
	}
	if r.Op != opSendMessage || r.Delivery != 77 || r.Index != 513 || r.DPID != 12 {
		t.Fatalf("decoded %+v", r)
	}
	if _, ok := r.Msg.(*openflow.FlowMod); !ok {
		t.Fatalf("msg %T", r.Msg)
	}
	// nil message form.
	b2, _ := encodeRequest(request{Op: opBarrier, DPID: 3})
	r2, err := decodeRequest(b2)
	if err != nil || r2.Op != opBarrier || r2.DPID != 3 || r2.Msg != nil {
		t.Fatalf("barrier decode: %v %+v", err, r2)
	}
	// The batch index rides a uint16: larger indices are rejected, and
	// every truncation of the fixed header is refused.
	if _, err := encodeRequest(request{Op: opBarrier, Index: 0x10000}); err == nil {
		t.Error("index beyond uint16 accepted")
	}
	for cut := 0; cut < requestHeaderLen; cut++ {
		if _, err := decodeRequest(b2[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

func TestSwitchesTopologyPortsRoundTrip(t *testing.T) {
	dpids := []uint64{1, 5, 900}
	encSw, err := encodeSwitches(dpids)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeSwitches(encSw)
	if err != nil || !reflect.DeepEqual(got, dpids) {
		t.Fatalf("switches: %v %v", got, err)
	}

	links := []controller.LinkInfo{{SrcDPID: 1, SrcPort: 2, DstDPID: 3, DstPort: 4}}
	encTopo, err := encodeTopology(links)
	if err != nil {
		t.Fatal(err)
	}
	gotLinks, err := decodeTopology(encTopo)
	if err != nil || !reflect.DeepEqual(gotLinks, links) {
		t.Fatalf("topology: %v %v", gotLinks, err)
	}

	ports := []openflow.PhyPort{{PortNo: 1, Name: "eth1", Curr: 1}}
	gotPorts, err := decodePorts(encodePorts(ports))
	if err != nil || !reflect.DeepEqual(gotPorts, ports) {
		t.Fatalf("ports: %v %v", gotPorts, err)
	}
}

// Property: event encode/decode round-trips for arbitrary headers.
func TestQuickEventRoundTrip(t *testing.T) {
	f := func(seq, dpid uint64, kindRaw uint8, seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ev := controller.Event{
			Seq:  seq,
			Kind: controller.EventKind(kindRaw % 6),
			DPID: dpid,
		}
		if r.Intn(2) == 0 {
			ev.Message = &openflow.PacketIn{
				BufferID: openflow.BufferIDNone,
				InPort:   uint16(r.Uint32()),
				Data:     make([]byte, r.Intn(64)),
			}
		}
		b, err := encodeEvent(ev)
		if err != nil {
			return false
		}
		got, err := decodeEvent(b)
		if err != nil {
			return false
		}
		return got.Seq == ev.Seq && got.Kind == ev.Kind && got.DPID == ev.DPID &&
			(got.Message == nil) == (ev.Message == nil)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: datagram marshal/parse round-trips.
func TestQuickDatagramRoundTrip(t *testing.T) {
	f := func(typ uint8, id uint64, payload []byte) bool {
		if len(payload) > maxDatagram-headerLen {
			payload = payload[:maxDatagram-headerLen]
		}
		d := &datagram{Type: typ, ID: id, Payload: payload}
		b, err := d.marshal()
		if err != nil {
			return false
		}
		got, err := parseDatagram(b)
		if err != nil {
			return false
		}
		if len(got.Payload) == 0 && len(d.Payload) == 0 {
			return got.Type == d.Type && got.ID == d.ID
		}
		return reflect.DeepEqual(got, d)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
