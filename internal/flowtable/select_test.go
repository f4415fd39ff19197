package flowtable

import (
	"fmt"
	"math/rand"
	"testing"

	"legosdn/internal/openflow"
)

// The indexed selection paths (a strict select is one map probe, a
// non-strict select with a fully exact match reads one exact-index
// slot) are checked against selectLinear, the scan-every-entry
// reference, on random tables mixing exact and wildcard entries at
// several priorities with out_port filters.

// randSelectTable builds a table of n entries, half exact and half
// wildcard, at priorities 0-3, each outputting to one or two of ports
// 1-3, then runs traffic through it so entries carry distinct counters.
// Exact matches often recur at another priority, so one exact-index
// slot holds several entries whose order matters.
func randSelectTable(r *rand.Rand, n int) *Table {
	ft := New(nil)
	var exacts []openflow.Match
	for i := 0; i < n; i++ {
		var m openflow.Match
		if r.Intn(2) == 0 {
			if len(exacts) > 0 && r.Intn(2) == 0 {
				m = exacts[r.Intn(len(exacts))]
			} else {
				m = exactMatchFor(randPacketSmall(r))
				exacts = append(exacts, m)
			}
		} else {
			m = randWildMatch(r)
		}
		actions := []openflow.Action{&openflow.ActionOutput{Port: uint16(1 + r.Intn(3))}}
		if r.Intn(3) == 0 {
			actions = append(actions, &openflow.ActionOutput{Port: uint16(1 + r.Intn(3))})
		}
		fm := addMod(m, uint16(r.Intn(4)), actions...)
		fm.Cookie = uint64(i)
		ft.Apply(fm)
	}
	for i := 0; i < 4*n; i++ {
		ft.Lookup(randPacketSmall(r), 1+r.Intn(1500))
	}
	return ft
}

// randSelector draws a FlowMod selector. Half the time it reuses a
// resident entry's match, so strict and exact selections often hit.
func randSelector(r *rand.Rand, ft *Table) (openflow.Match, uint16, uint16) {
	prio := uint16(r.Intn(4))
	outPort := openflow.PortNone
	if r.Intn(2) == 0 {
		outPort = uint16(1 + r.Intn(3))
	}
	if es := ft.Entries(); len(es) > 0 && r.Intn(2) == 0 {
		e := es[r.Intn(len(es))]
		if r.Intn(2) == 0 {
			prio = e.Priority
		}
		return e.Match, prio, outPort
	}
	switch r.Intn(3) {
	case 0:
		return exactMatchFor(randPacketSmall(r)), prio, outPort
	case 1:
		return randWildMatch(r), prio, outPort
	default:
		return openflow.MatchAll(), prio, outPort
	}
}

// linearSelect runs the reference selection and deep-copies the result.
func linearSelect(ft *Table, m openflow.Match, prio uint16, strict bool, outPort uint16) []*Entry {
	norm := m.Normalize()
	ft.mu.RLock()
	defer ft.mu.RUnlock()
	return cloneAll(ft.selectLinear(&norm, prio, strict, outPort))
}

// entryDescs renders entries with everything a selection must preserve:
// order, identity, actions and counters.
func entryDescs(es []*Entry) []string {
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = fmt.Sprintf("p%d[%s] cookie=%d %v packets=%d bytes=%d",
			e.Priority, e.Match, e.Cookie, e.Actions, e.PacketCount, e.ByteCount)
	}
	return out
}

func sameEntries(t *testing.T, what string, got, want []*Entry) {
	t.Helper()
	g, w := entryDescs(got), entryDescs(want)
	if fmt.Sprint(g) != fmt.Sprint(w) {
		t.Fatalf("%s:\n got  %q\n want %q", what, g, w)
	}
}

// TestSelectMatchesLinear checks Select, and MatchingEntries (the
// stats-request form, whose exact filters read one exact-index slot),
// against the reference.
func TestSelectMatchesLinear(t *testing.T) {
	hits, exactHits := 0, 0
	for seed := int64(0); seed < 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		ft := randSelectTable(r, 3+r.Intn(40))
		for i := 0; i < 30; i++ {
			m, prio, outPort := randSelector(r, ft)
			strict := r.Intn(2) == 0
			got := ft.Select(&m, prio, strict, outPort)
			want := linearSelect(ft, m, prio, strict, outPort)
			sameEntries(t, fmt.Sprintf("seed %d Select(%s, %d, strict=%v, out_port %d)", seed, m, prio, strict, outPort), got, want)
			hits += len(got)

			got = ft.MatchingEntries(&m, outPort)
			want = linearSelect(ft, m, 0, false, outPort)
			sameEntries(t, fmt.Sprintf("seed %d MatchingEntries(%s, out_port %d)", seed, m, outPort), got, want)
			if norm := m.Normalize(); norm.Wildcards == 0 {
				exactHits += len(got)
			}
		}
	}
	if hits < 1000 || exactHits < 200 {
		t.Fatalf("selected %d entries, %d by exact filters; the selectors miss too often to test anything", hits, exactHits)
	}
}

// TestApplyDeleteMatchesLinear deletes through Apply, strict and
// non-strict, and checks the removed entries (order and final counters)
// and the surviving table against the reference selection taken just
// before, then checks the index still agrees with a linear lookup.
func TestApplyDeleteMatchesLinear(t *testing.T) {
	removedTotal := 0
	for seed := int64(0); seed < 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		ft := randSelectTable(r, 3+r.Intn(40))
		for i := 0; i < 10; i++ {
			m, prio, outPort := randSelector(r, ft)
			strict := r.Intn(3) != 0
			before := ft.Entries()
			want := linearSelect(ft, m, prio, strict, outPort)
			cmd := openflow.FlowModDelete
			if strict {
				cmd = openflow.FlowModDeleteStrict
			}
			removed, err := ft.Apply(&openflow.FlowMod{
				Match: m, Command: cmd, Priority: prio,
				OutPort: outPort, BufferID: openflow.BufferIDNone,
			})
			if err != nil {
				t.Fatal(err)
			}
			what := fmt.Sprintf("seed %d delete(%s, %d, strict=%v, out_port %d)", seed, m, prio, strict, outPort)
			got := make([]*Entry, len(removed))
			for j, rm := range removed {
				if rm.Reason != openflow.FlowRemovedDelete {
					t.Fatalf("%s: removal reason %v", what, rm.Reason)
				}
				got[j] = rm.Entry
			}
			sameEntries(t, what+": removed", got, want)
			removedTotal += len(got)

			gone := make(map[string]bool, len(want))
			for _, d := range entryDescs(want) {
				gone[d] = true
			}
			var survivors []*Entry
			for j, d := range entryDescs(before) {
				if !gone[d] {
					survivors = append(survivors, before[j])
				}
			}
			sameEntries(t, what+": survivors", ft.Entries(), survivors)
			for k := 0; k < 20; k++ {
				p := randPacketSmall(r)
				if got, want := ft.Peek(p), ft.LookupLinear(p); (got == nil) != (want == nil) ||
					(got != nil && got.key() != want.key()) {
					t.Fatalf("%s: indexed lookup %v, linear %v", what, got, want)
				}
			}
		}
	}
	if removedTotal < 300 {
		t.Fatalf("only %d entries removed in all; the deletes miss too often to test anything", removedTotal)
	}
}
