package netlog

import (
	"fmt"
	"testing"
	"time"

	"legosdn/internal/flowtable"
	"legosdn/internal/netsim"
	"legosdn/internal/openflow"
)

// tableSender is a switch reduced to its flow table: FlowMods apply to
// it and flow-stats requests read it, so the hook's live-counter read
// takes the same MatchingEntries path a simulated switch serves.
type tableSender struct{ table *flowtable.Table }

func (s tableSender) SendMessage(_ uint64, msg openflow.Message) error {
	if fm, ok := msg.(*openflow.FlowMod); ok {
		_, err := s.table.Apply(fm)
		return err
	}
	return nil
}

func (tableSender) Barrier(uint64) error { return nil }

func (s tableSender) RequestStats(_ uint64, req *openflow.StatsRequest) (*openflow.StatsReply, error) {
	reply := &openflow.StatsReply{StatsType: openflow.StatsTypeFlow}
	for _, e := range s.table.MatchingEntries(&req.Flow.Match, req.Flow.OutPort) {
		reply.Flows = append(reply.Flows, openflow.FlowStatsEntry{
			Match: e.Match, Priority: e.Priority, PacketCount: e.PacketCount, ByteCount: e.ByteCount,
		})
	}
	return reply, nil
}

// undoRig holds a NetLog manager over one switch with a constant number
// of resident exact-match flows, the flow-setup workload's shape: each
// step strict-deletes the oldest flow and adds a new one inside one
// transaction.
type undoRig struct {
	m      *Manager
	hook   func(uint64, openflow.Message) (openflow.Message, error)
	sw     tableSender
	oldest int
	next   int
}

// exactFlow is flow i's exact match. Only the MAC source varies, and a
// MAC prints at fixed width, so every flow's match string (which the
// table builds on insert) costs the same allocations at any i.
func exactFlow(i int) openflow.Match {
	return openflow.Match{
		InPort: 1, DlType: 0x0800, NwProto: 6,
		DlSrc: openflow.EthAddr{2, 0, byte(i >> 24), byte(i >> 16), byte(i >> 8), byte(i)},
		DlDst: openflow.EthAddr{2, 0, 0, 0, 0, 1},
		NwSrc: 0x0a000001, NwDst: 0x0a800001,
		TpSrc: 1024, TpDst: 80,
	}
}

func newUndoRig(t testing.TB, resident int) *undoRig {
	sw := tableSender{flowtable.New(nil)}
	m := NewManager(sw, netsim.NewFakeClock(time.Unix(10000, 0)))
	r := &undoRig{m: m, hook: m.Hook(), sw: sw}
	for r.next < resident {
		r.send(t, r.flowMod(openflow.FlowModAdd, r.next))
		r.next++
	}
	return r
}

func (r *undoRig) flowMod(cmd openflow.FlowModCommand, i int) *openflow.FlowMod {
	return &openflow.FlowMod{
		Match: exactFlow(i), Command: cmd, Priority: 100,
		BufferID: openflow.BufferIDNone, OutPort: openflow.PortNone,
		Actions: []openflow.Action{&openflow.ActionOutput{Port: 2}},
	}
}

// send mirrors Controller.SendMessage: outbound hook, then the wire.
func (r *undoRig) send(t testing.TB, fm *openflow.FlowMod) {
	if _, err := r.hook(1, fm); err != nil {
		t.Fatal(err)
	}
	if err := r.sw.SendMessage(1, fm); err != nil {
		t.Fatal(err)
	}
}

// step runs one transactional delete+add pair.
func (r *undoRig) step(t testing.TB) {
	tx := r.m.Begin()
	r.m.SetActive(tx)
	r.send(t, r.flowMod(openflow.FlowModDeleteStrict, r.oldest))
	r.send(t, r.flowMod(openflow.FlowModAdd, r.next))
	r.m.SetActive(nil)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	r.oldest++
	r.next++
}

// TestNetLogHookAllocsIndependentOfShadowSize is the alloc gate for the
// undo path: a transactional delete+add pair allocates the same at 16
// and at 1,024 resident flows, so neither the inverse computation nor
// the live-counter read copies the shadow or the switch table whole.
func TestNetLogHookAllocsIndependentOfShadowSize(t *testing.T) {
	allocs := func(resident int) float64 {
		r := newUndoRig(t, resident)
		for i := 0; i < 50; i++ {
			r.step(t) // warm maps and slices up to steady state
		}
		return testing.AllocsPerRun(200, func() { r.step(t) })
	}
	small, large := allocs(16), allocs(1024)
	if small != large {
		t.Fatalf("delete+add allocs: %v at 16 resident flows, %v at 1024; the hook scales with table size", small, large)
	}
	r := newUndoRig(t, 16)
	r.step(t)
	if got := len(r.m.ShadowEntries(1)); got != 16 {
		t.Fatalf("shadow holds %d entries after a delete+add, want 16", got)
	}
}

// BenchmarkNetLogHookDeleteAdd times one transactional delete+add pair
// through the hook against a shadow of constant occupancy.
func BenchmarkNetLogHookDeleteAdd(b *testing.B) {
	for _, resident := range []int{256, 4096} {
		b.Run(fmt.Sprintf("resident=%d", resident), func(b *testing.B) {
			r := newUndoRig(b, resident)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.step(b)
			}
		})
	}
}
