package core

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"legosdn/internal/controller"
	"legosdn/internal/netsim"
	"legosdn/internal/openflow"
)

// windowApp installs one rule per PacketIn, keyed on the event index the
// test puts in the PacketIn's BufferID: in TpDst for one app, in TpSrc
// for the other, so the two apps' rules never collide. With crashEvery
// set it panics after its FlowMod on every crashEvery-th index, leaving
// the rule for NetLog to roll back.
type windowApp struct {
	name       string
	tpSrc      bool
	crashEvery uint32
	last       *atomic.Uint32 // highest index handled; survives respawns
	count      uint64
}

func (a *windowApp) Name() string { return a.name }
func (a *windowApp) Subscriptions() []controller.EventKind {
	return []controller.EventKind{controller.EventPacketIn}
}

func (a *windowApp) HandleEvent(ctx controller.Context, ev controller.Event) error {
	pin, ok := ev.Message.(*openflow.PacketIn)
	if !ok {
		return nil
	}
	idx := pin.BufferID
	if err := ctx.SendFlowMod(ev.DPID, windowRule(uint16(idx), a.tpSrc)); err != nil {
		return err
	}
	if a.crashEvery > 0 && idx%a.crashEvery == 0 {
		panic(fmt.Sprintf("%s: poisoned event %d", a.name, idx))
	}
	a.count++
	if idx > a.last.Load() {
		a.last.Store(idx)
	}
	return nil
}

func (a *windowApp) Snapshot() ([]byte, error) {
	return binary.BigEndian.AppendUint64(nil, a.count), nil
}

func (a *windowApp) Restore(b []byte) error {
	if len(b) != 8 {
		return fmt.Errorf("bad state")
	}
	a.count = binary.BigEndian.Uint64(b)
	return nil
}

func windowRule(port uint16, tpSrc bool) *openflow.FlowMod {
	m := openflow.MatchAll()
	m.Wildcards &^= openflow.WildcardDlType | openflow.WildcardNwProto
	m.DlType = 0x0800
	m.NwProto = 6
	if tpSrc {
		m.Wildcards &^= openflow.WildcardTpSrc
		m.TpSrc = port
	} else {
		m.Wildcards &^= openflow.WildcardTpDst
		m.TpDst = port
	}
	return &openflow.FlowMod{Match: m, Command: openflow.FlowModAdd, Priority: 100,
		BufferID: openflow.BufferIDNone, OutPort: openflow.PortNone,
		Actions: []openflow.Action{&openflow.ActionOutput{Port: 1}}}
}

// ruleKey names a rule by the app that owns it and its event index.
func ruleKey(m openflow.Match) string {
	if m.Wildcards&openflow.WildcardTpSrc == 0 {
		return fmt.Sprintf("crashy/%d", m.TpSrc)
	}
	return fmt.Sprintf("healthy/%d", m.TpDst)
}

// TestParallelAppsKeepSeparateTransactions runs two FlowMod apps on the
// parallel LegoSDN path; one crashes after its FlowMod on every 10th
// event. NetLog journals into one active transaction, so without a
// transaction window per Crash-Pad the apps' workers journal into each
// other's transactions: a crash then rolls back the healthy app's
// committed rules, or misses its own. The switch must end with every
// healthy rule and exactly the crashy app's non-crashing rules.
func TestParallelAppsKeepSeparateTransactions(t *testing.T) {
	const events, crashEvery = 205, 10
	stack := NewStack(Config{Mode: ModeLegoSDN, Parallel: true, BatchMax: 8})
	defer stack.Close()
	var healthyLast, crashyLast atomic.Uint32
	if err := stack.AddApp(func() controller.App {
		return &windowApp{name: "healthy", last: &healthyLast}
	}); err != nil {
		t.Fatal(err)
	}
	if err := stack.AddApp(func() controller.App {
		return &windowApp{name: "crashy", tpSrc: true, crashEvery: crashEvery, last: &crashyLast}
	}); err != nil {
		t.Fatal(err)
	}
	n := netsim.Single(2, nil)
	if err := stack.ConnectNetwork(n); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= events; i++ {
		err := stack.Controller.Inject(controller.Event{Kind: controller.EventPacketIn, DPID: 1,
			Message: &openflow.PacketIn{BufferID: uint32(i), InPort: 1, Reason: openflow.PacketInReasonNoMatch}})
		if err != nil {
			t.Fatal(err)
		}
	}

	want := make(map[string]bool)
	for i := 1; i <= events; i++ {
		want[fmt.Sprintf("healthy/%d", i)] = true
		if i%crashEvery != 0 {
			want[fmt.Sprintf("crashy/%d", i)] = true
		}
	}
	sw := n.Switch(1)
	installed := func() map[string]bool {
		got := make(map[string]bool)
		for _, e := range sw.Table().Entries() {
			got[ruleKey(e.Match)] = true
		}
		return got
	}
	settled := func() bool {
		return healthyLast.Load() == events && crashyLast.Load() == events &&
			stack.NetLog.Active() == nil && len(installed()) == len(want)
	}
	for deadline := time.Now().Add(10 * time.Second); !settled() && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
	}

	got := installed()
	var removed, leftover []string
	for k := range want {
		if !got[k] {
			removed = append(removed, k)
		}
	}
	for k := range got {
		if !want[k] {
			leftover = append(leftover, k)
		}
	}
	sort.Strings(removed)
	sort.Strings(leftover)
	if len(removed) > 0 || len(leftover) > 0 {
		t.Fatalf("committed rules missing from the switch: %v; rolled-back rules still installed: %v",
			removed, leftover)
	}
	if want := uint64(events / crashEvery); stack.CrashPad.CrashesSeen.Load() != want {
		t.Fatalf("crashes seen = %d, want %d", stack.CrashPad.CrashesSeen.Load(), want)
	}
	if got, want := stack.NetLog.ShadowFingerprint(1), sw.Table().Fingerprint(); got != want {
		t.Fatalf("shadow %q != switch %q", got, want)
	}
}
