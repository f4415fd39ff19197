package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"legosdn/internal/controller"
	"legosdn/internal/netsim"
	"legosdn/internal/openflow"
	"legosdn/internal/workload"
)

// The benchmark's own SDN-Apps. Both run inside AppVisor stubs; they
// learn which benchmark event they are handling from the PacketIn's
// BufferID, which the generator sets to the event id (crashBit marks a
// planted crash).

const (
	// crashBit in a PacketIn's BufferID asks the app to panic.
	crashBit = 1 << 31
	// flowHosts sizes the workload.FlowSpace the flow ids decode into.
	flowHosts = 4096
	// maxSwitches bounds the fabrics and the flow app's per-switch state.
	maxSwitches = 8
	// switchBlock spaces the per-switch flow-id ranges so they never meet.
	switchBlock = 1 << 32
	// flowPriority is the priority of every rule the flow app installs.
	flowPriority = 100
)

// appProbe receives the hosted app's own timings for the delivery in
// flight: handler time, time inside ctx.SendFlowMod, and snapshot time,
// in nanoseconds. The stub runs the app on its own goroutine and the
// runner tap reads the values, hence atomics. It times nothing while off.
type appProbe struct {
	on       atomic.Bool
	handleNs atomic.Int64
	sendNs   atomic.Int64
	snapNs   atomic.Int64
}

func (p *appProbe) start() time.Time {
	if !p.on.Load() {
		return time.Time{}
	}
	return time.Now()
}

func (p *appProbe) add(c *atomic.Int64, t0 time.Time) {
	if !t0.IsZero() {
		c.Add(int64(time.Since(t0)))
	}
}

func (p *appProbe) reset() {
	p.handleNs.Store(0)
	p.sendNs.Store(0)
	p.snapNs.Store(0)
}

// flowLayout maps (switch, ordinal) to a flow id: switch s owns the id
// range starting at its seeded base, and its k-th flow is base+k. The
// layout is the flow app's configuration, not its state, so the app can
// name the flow it must evict from the packet alone.
type flowLayout struct {
	space    workload.FlowSpace
	switches int
	resident uint64
	base     [maxSwitches]uint64
}

func newFlowLayout(seed int64, switches, resident int) *flowLayout {
	r := rand.New(rand.NewSource(seed))
	l := &flowLayout{space: workload.NewFlowSpace(flowHosts), switches: switches, resident: uint64(resident)}
	for s := range l.base {
		l.base[s] = uint64(s)*switchBlock + uint64(r.Int63n(switchBlock/2))
	}
	return l
}

// id returns the flow id of switch dpid's k-th flow.
func (l *flowLayout) id(dpid, k uint64) uint64 { return l.base[dpid-1] + k }

// ordinal inverts id for switch dpid.
func (l *flowLayout) ordinal(dpid, id uint64) uint64 { return id - l.base[dpid-1] }

// flowIDOf inverts workload.FlowSpace.Tuple for a flowHosts-host space.
func flowIDOf(src, dst int, sport uint16) uint64 {
	const h = uint64(flowHosts)
	d := uint64(dst - 1)
	if d >= uint64(src) {
		d-- // Tuple skips the src==dst diagonal
	}
	return uint64(src-1) + h*(d+(h-1)*uint64(sport-10000))
}

// packetFlow decodes the flow id carried by a generated PacketIn.
func packetFlow(pin *openflow.PacketIn) (uint64, error) {
	f, err := netsim.ParseFrame(pin.Data)
	if err != nil {
		return 0, err
	}
	return flowIDOf(int(f.NwSrc&0xffff), int(f.NwDst&0xffff), f.TpSrc), nil
}

// flowMatch is the exact five-tuple match for flow id.
func (l *flowLayout) flowMatch(id uint64) openflow.Match {
	src, dst, sport, dport := l.space.Tuple(id)
	m := openflow.MatchAll()
	m.Wildcards &^= openflow.WildcardDlType | openflow.WildcardNwProto |
		openflow.WildcardTpSrc | openflow.WildcardTpDst
	m.SetNwSrcMaskBits(0)
	m.SetNwDstMaskBits(0)
	m.DlType = netsim.EtherTypeIPv4
	m.NwProto = netsim.IPProtoTCP
	m.NwSrc = netsim.HostIP(src)
	m.NwDst = netsim.HostIP(dst)
	m.TpSrc = sport
	m.TpDst = dport
	return m
}

func (l *flowLayout) addFlow(id uint64) *openflow.FlowMod {
	return &openflow.FlowMod{
		Match:    l.flowMatch(id),
		Cookie:   id,
		Command:  openflow.FlowModAdd,
		Priority: flowPriority,
		BufferID: openflow.BufferIDNone,
		OutPort:  openflow.PortNone,
		Actions:  []openflow.Action{&openflow.ActionOutput{Port: 1}},
	}
}

func (l *flowLayout) deleteFlow(id uint64) *openflow.FlowMod {
	return &openflow.FlowMod{
		Match:    l.flowMatch(id),
		Command:  openflow.FlowModDeleteStrict,
		Priority: flowPriority,
		BufferID: openflow.BufferIDNone,
		OutPort:  openflow.PortNone,
	}
}

// flowApp installs an exact-match rule per PacketIn. Once a switch holds
// layout.resident of its flows it FIFO-evicts the oldest with a strict
// delete, so every steady-state event sends a delete plus an add. Its
// state is one install counter per switch: 64 bytes.
type flowApp struct {
	layout *flowLayout
	probe  *appProbe

	mu        sync.Mutex
	installed [maxSwitches]uint64
}

const flowAppName = "bench-flow"

func (a *flowApp) Name() string { return flowAppName }

func (a *flowApp) Subscriptions() []controller.EventKind {
	return []controller.EventKind{controller.EventPacketIn}
}

func (a *flowApp) HandleEvent(ctx controller.Context, ev controller.Event) error {
	pin, ok := ev.Message.(*openflow.PacketIn)
	if !ok || ev.DPID < 1 || ev.DPID > maxSwitches {
		return nil
	}
	defer a.probe.add(&a.probe.handleNs, a.probe.start())
	id, err := packetFlow(pin)
	if err != nil {
		return err
	}
	if a.layout.ordinal(ev.DPID, id) >= a.layout.resident {
		if err := a.send(ctx, ev.DPID, a.layout.deleteFlow(id-a.layout.resident)); err != nil {
			return err
		}
	}
	if err := a.send(ctx, ev.DPID, a.layout.addFlow(id)); err != nil {
		return err
	}
	if pin.BufferID&crashBit != 0 {
		panic(fmt.Sprintf("planted crash after installing flow %d", id))
	}
	a.mu.Lock()
	a.installed[ev.DPID-1]++
	a.mu.Unlock()
	return nil
}

func (a *flowApp) send(ctx controller.Context, dpid uint64, fm *openflow.FlowMod) error {
	defer a.probe.add(&a.probe.sendNs, a.probe.start())
	return ctx.SendFlowMod(dpid, fm)
}

func (a *flowApp) Snapshot() ([]byte, error) {
	defer a.probe.add(&a.probe.snapNs, a.probe.start())
	a.mu.Lock()
	defer a.mu.Unlock()
	return encodeCounters(a.installed[:]), nil
}

func (a *flowApp) Restore(state []byte) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return decodeCounters(state, a.installed[:])
}

// monitorSlots is the monitor app's state: slot 0 counts events, the
// rest count events per flow bucket. 2048 slots of 8 bytes = 16 KiB.
const monitorSlots = 2048

// monitorApp is a passive traffic monitor: it classifies every PacketIn
// into a flow bucket and counts it, sending nothing to the network.
type monitorApp struct {
	probe *appProbe

	mu    sync.Mutex
	slots [monitorSlots]uint64
}

const monitorAppName = "bench-monitor"

func (a *monitorApp) Name() string { return monitorAppName }

func (a *monitorApp) Subscriptions() []controller.EventKind {
	return []controller.EventKind{controller.EventPacketIn}
}

func (a *monitorApp) HandleEvent(_ controller.Context, ev controller.Event) error {
	pin, ok := ev.Message.(*openflow.PacketIn)
	if !ok {
		return nil
	}
	defer a.probe.add(&a.probe.handleNs, a.probe.start())
	id, err := packetFlow(pin)
	if err != nil {
		return err
	}
	a.mu.Lock()
	a.slots[0]++
	a.slots[1+id%(monitorSlots-1)]++
	a.mu.Unlock()
	if pin.BufferID&crashBit != 0 {
		// The count above is already applied: only Crash-Pad's restore
		// keeps the crashing event out of the state.
		panic(fmt.Sprintf("planted crash on flow %d", id))
	}
	return nil
}

func (a *monitorApp) Snapshot() ([]byte, error) {
	defer a.probe.add(&a.probe.snapNs, a.probe.start())
	a.mu.Lock()
	defer a.mu.Unlock()
	return encodeCounters(a.slots[:]), nil
}

func (a *monitorApp) Restore(state []byte) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return decodeCounters(state, a.slots[:])
}

func encodeCounters(vals []uint64) []byte {
	out := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(out[8*i:], v)
	}
	return out
}

func decodeCounters(state []byte, into []uint64) error {
	if len(state) != 8*len(into) {
		return fmt.Errorf("state is %d bytes, want %d", len(state), 8*len(into))
	}
	for i := range into {
		into[i] = binary.LittleEndian.Uint64(state[8*i:])
	}
	return nil
}
