package chaos

import (
	"fmt"
	"sync"
	"time"

	"legosdn/internal/appvisor"
	"legosdn/internal/metrics"
	"legosdn/internal/netlog"
	"legosdn/internal/netsim"
	"legosdn/internal/openflow"
)

// Fault point names. Per-app points append "/<app>".
//
//	appvisor/drop      shed an event datagram (proxy -> stub)
//	appvisor/dup       deliver an event datagram twice
//	appvisor/corrupt   mangle an event datagram's framing
//	appvisor/delay     deliver an event datagram late (reordering)
//	appvisor/ack-drop  shed a stub's event acknowledgment
//	appvisor/kill      SIGKILL the stub between events
//	netlog/inverse-fail    fail one inverse op during rollback
//	netlog/disconnect      sever the target switch mid-rollback
//	netsim/flap        bounce an inter-switch link down and up
//	netsim/partition   bisect the fabric (scheduled by event index)
//	netsim/loss        open a loss burst window
const (
	PointDrop       = "appvisor/drop"
	PointDup        = "appvisor/dup"
	PointCorrupt    = "appvisor/corrupt"
	PointDelay      = "appvisor/delay"
	PointAckDrop    = "appvisor/ack-drop"
	PointKill       = "appvisor/kill"
	PointInverse    = "netlog/inverse-fail"
	PointDisconnect = "netlog/disconnect"
	PointFlap       = "netsim/flap"
	PointPartition  = "netsim/partition"
	PointLoss       = "netsim/loss"
)

// Injector binds a Schedule's decisions to the infrastructure layers'
// fault hooks, and exports every fired fault as a counter per point
// (legosdn_chaos_faults_total{point=...}).
type Injector struct {
	sched *Schedule
	reg   *metrics.Registry

	mu       sync.Mutex
	counters map[string]*metrics.Counter
	fired    map[string]int
	severed  map[uint64]bool
}

// NewInjector creates an injector drawing from sched. reg may be nil
// (outcomes are then only tallied internally).
func NewInjector(sched *Schedule, reg *metrics.Registry) *Injector {
	return &Injector{
		sched:    sched,
		reg:      reg,
		counters: make(map[string]*metrics.Counter),
		fired:    make(map[string]int),
		severed:  make(map[uint64]bool),
	}
}

// Schedule returns the injector's decision source.
func (inj *Injector) Schedule() *Schedule { return inj.sched }

// Fire decides the named fault point at the given probability, and
// when it fires, records the outcome in metrics.
func (inj *Injector) Fire(point string, prob float64) bool {
	if prob <= 0 {
		return false
	}
	if !inj.sched.Decide(point, prob) {
		return false
	}
	inj.note(point)
	return true
}

func (inj *Injector) note(point string) {
	inj.mu.Lock()
	inj.fired[point]++
	c := inj.counters[point]
	if c == nil && inj.reg != nil {
		c = inj.reg.Counter(
			fmt.Sprintf("legosdn_chaos_faults_total{point=%q}", point),
			"chaos fault activations by fault point")
		inj.counters[point] = c
	}
	inj.mu.Unlock()
	if c != nil {
		c.Inc()
	}
}

// severedDPIDs returns the switches the disconnect fault took down, so
// the scenario runner can reconnect them before judging recovery.
func (inj *Injector) severedDPIDs() map[uint64]bool {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	out := make(map[uint64]bool, len(inj.severed))
	for k := range inj.severed {
		out[k] = true
	}
	return out
}

// FiredCounts returns a copy of the per-point activation tallies.
func (inj *Injector) FiredCounts() map[string]int {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	out := make(map[string]int, len(inj.fired))
	for k, v := range inj.fired {
		out[k] = v
	}
	return out
}

// WireFaultProbs sets the per-datagram probabilities for the AppVisor
// wire fault points. Zero probabilities draw nothing (the point's
// stream is untouched), so enabling a new fault never perturbs the
// streams of the others.
type WireFaultProbs struct {
	Drop    float64
	Dup     float64
	Corrupt float64
	Delay   float64
	// DelayFor is how late a delayed datagram is delivered
	// (default 20ms).
	DelayFor time.Duration
	// MinGap is the minimum number of datagrams between two disruptive
	// faults (drop/corrupt) on the same app (default 8). Recovery from
	// a lost event replays the checkpoint suffix over the same wire; a
	// second hit inside that window would defeat Crash-Pad's single
	// restore attempt, which models a partitioned app, not a lossy
	// channel. The gap counter is itself a pure function of the decision
	// stream, so determinism is preserved.
	MinGap int
}

func (p WireFaultProbs) any() bool {
	return p.Drop > 0 || p.Dup > 0 || p.Corrupt > 0 || p.Delay > 0
}

// WireFault builds an appvisor.WireFault driven by the schedule.
// Decisions are drawn per app (points "appvisor/<fault>/<app>"), in a
// fixed order per datagram, so each app's fault stream depends only on
// how many event datagrams that app has been sent.
func (inj *Injector) WireFault(p WireFaultProbs) appvisor.WireFault {
	if p.DelayFor <= 0 {
		p.DelayFor = 20 * time.Millisecond
	}
	if p.MinGap <= 0 {
		p.MinGap = 8
	}
	cool := make(map[string]int) // per-app datagrams left in the gap
	var mu sync.Mutex
	return func(origin, app string, dgType uint8) appvisor.WireVerdict {
		if origin == "stub" {
			if inj.Fire(PointAckDrop+"/"+app, p.Drop) {
				return appvisor.WireVerdict{Action: appvisor.WireDrop}
			}
			return appvisor.WireVerdict{}
		}
		dropProb, corruptProb := p.Drop, p.Corrupt
		mu.Lock()
		if cool[app] > 0 {
			cool[app]--
			dropProb, corruptProb = 0, 0
		}
		mu.Unlock()
		if inj.Fire(PointDrop+"/"+app, dropProb) {
			mu.Lock()
			cool[app] = p.MinGap
			mu.Unlock()
			return appvisor.WireVerdict{Action: appvisor.WireDrop}
		}
		if inj.Fire(PointCorrupt+"/"+app, corruptProb) {
			mu.Lock()
			cool[app] = p.MinGap
			mu.Unlock()
			return appvisor.WireVerdict{Action: appvisor.WireCorrupt}
		}
		if inj.Fire(PointDup+"/"+app, p.Dup) {
			return appvisor.WireVerdict{Action: appvisor.WireDup}
		}
		if inj.Fire(PointDelay+"/"+app, p.Delay) {
			return appvisor.WireVerdict{Delay: p.DelayFor}
		}
		return appvisor.WireVerdict{}
	}
}

// NetLogFault builds a netlog.SendFault driven by the schedule.
// disconnectProb severs the inverse op's target switch mid-rollback
// (the control channel drops while the transaction is being unwound);
// failProb makes the inverse op itself fail, leaving §3.2 residue for
// the counter-cache and resync paths.
func (inj *Injector) NetLogFault(n *netsim.Network, failProb, disconnectProb float64) netlog.SendFault {
	return func(dpid uint64, msg openflow.Message) error {
		if inj.Fire(PointDisconnect, disconnectProb) {
			_ = n.SetSwitchDown(dpid, true)
			inj.mu.Lock()
			inj.severed[dpid] = true
			inj.mu.Unlock()
			return fmt.Errorf("chaos: switch %d disconnected mid-rollback", dpid)
		}
		if inj.Fire(PointInverse, failProb) {
			return fmt.Errorf("chaos: inverse op to switch %d failed", dpid)
		}
		return nil
	}
}
