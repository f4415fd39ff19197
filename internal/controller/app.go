// Package controller implements a FloodLight-style OpenFlow controller:
// switch handshake and connection management, an ordered SDN-App
// dispatch chain, synchronous request/reply plumbing (stats, barriers)
// and LLDP-based topology discovery.
//
// The package reproduces the architecture of Figure 1 (left) in the
// LegoSDN paper: by default every SDN-App runs in the controller's own
// failure domain, so an app panic crashes the whole control plane —
// the fate-sharing relationship LegoSDN exists to remove. The isolation
// machinery (AppVisor, Crash-Pad) plugs in through the AppRunner hook
// without modifying this package, mirroring the paper's claim that
// LegoSDN requires no controller changes.
package controller

import (
	"fmt"

	"legosdn/internal/openflow"
	"legosdn/internal/trace"
)

// EventKind classifies the events delivered to SDN-Apps.
type EventKind int

// Event kinds, in rough FloodLight listener taxonomy.
const (
	EventPacketIn EventKind = iota
	EventFlowRemoved
	EventPortStatus
	EventSwitchUp   // switch completed its handshake
	EventSwitchDown // switch control channel lost
	EventErrorMsg   // switch reported an OpenFlow error
)

var eventKindNames = map[EventKind]string{
	EventPacketIn:    "PACKET_IN",
	EventFlowRemoved: "FLOW_REMOVED",
	EventPortStatus:  "PORT_STATUS",
	EventSwitchUp:    "SWITCH_UP",
	EventSwitchDown:  "SWITCH_DOWN",
	EventErrorMsg:    "ERROR",
}

func (k EventKind) String() string {
	if s, ok := eventKindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("EVENT(%d)", int(k))
}

// AllEventKinds lists every kind, for apps subscribing to everything.
func AllEventKinds() []EventKind {
	return []EventKind{EventPacketIn, EventFlowRemoved, EventPortStatus, EventSwitchUp, EventSwitchDown, EventErrorMsg}
}

// Event is one unit of work delivered to an SDN-App: an asynchronous
// switch message or a connectivity pseudo-event. Seq is a controller
// assigned, strictly increasing sequence number establishing the
// dispatch order that LegoSDN's replay machinery depends on.
type Event struct {
	Seq     uint64
	Kind    EventKind
	DPID    uint64
	Message openflow.Message // nil for EventSwitchDown
	// Trace carries the event's sampled trace context (zero when
	// untraced). The controller sets the trace id at Inject; each stage
	// that opens a span re-parents SpanID before passing the event on,
	// and AppVisor propagates both ids over the wire so stub-side spans
	// join the same trace.
	Trace trace.SpanContext
}

func (e Event) String() string {
	return fmt.Sprintf("#%d %v dpid=%d", e.Seq, e.Kind, e.DPID)
}

// App is an SDN application. Implementations must be safe to drive from
// the controller's single dispatch goroutine; they need no internal
// locking unless they share state with other goroutines.
type App interface {
	// Name identifies the app in logs, policies and problem tickets.
	Name() string
	// Subscriptions lists the event kinds the app wants delivered.
	Subscriptions() []EventKind
	// HandleEvent processes one event, issuing commands through ctx.
	// A returned error marks the event as failed without implying an
	// app crash; a panic is an app crash.
	HandleEvent(ctx Context, ev Event) error
}

// InlineObserver marks an app that must run on the dispatch goroutine
// itself, before events fan out to parallel app queues. NetLog is the
// canonical case: it maintains shadow flow tables from FlowRemoved and
// switch lifecycle events and corrects counters in place, so it has to
// observe every event before any reacting app does. Inline observers
// trade parallelism for that ordering guarantee; keep their handlers
// cheap. In serial mode the marker changes nothing.
type InlineObserver interface {
	InlineObserve()
}

// BatchApp is implemented by apps that can absorb several events in one
// call. The parallel pipeline's workers coalesce queued runs of events
// into one HandleEventBatch delivery, which AppVisor's proxy turns into
// a single batched datagram (one UDP round trip for N events). Events
// must be processed in slice order; the error return follows
// HandleEvent semantics (an error marks events failed, a panic is a
// crash).
type BatchApp interface {
	HandleEventBatch(ctx Context, evs []Event) error
}

// BatchRunner is optionally implemented by AppRunners that can deliver
// a batch in one step. Runners without it simply get per-event
// RunEvent calls, so batching degrades gracefully.
type BatchRunner interface {
	RunEventBatch(app App, ctx Context, evs []Event) *AppFailure
}

// EventBoundary is optionally implemented by the Context a runner hands
// to HandleEventBatch. BeginEvent(i) announces that the Context calls
// which follow are made while handling evs[i]; Crash-Pad uses it to
// keep one NetLog transaction per event inside a batched delivery.
// AppVisor's proxy calls it from the batch index the stub stamps on
// each relayed call; an in-process BatchApp calls it itself before
// handling each event. Indices only move forward: a repeated or older
// index is ignored.
type EventBoundary interface {
	BeginEvent(i int)
}

// Snapshotter is implemented by stateful apps that support Crash-Pad
// checkpointing: Snapshot serializes all state needed to resume, and
// Restore replaces current state with a prior snapshot. This plays the
// role CRIU process images play in the paper's prototype.
type Snapshotter interface {
	Snapshot() ([]byte, error)
	Restore([]byte) error
}

// Context is the controller surface exposed to SDN-Apps. All methods
// are safe for concurrent use.
type Context interface {
	// SendMessage sends any OpenFlow message to a switch.
	SendMessage(dpid uint64, msg openflow.Message) error
	// SendFlowMod installs/removes flow state on a switch.
	SendFlowMod(dpid uint64, fm *openflow.FlowMod) error
	// SendPacketOut emits a packet from a switch.
	SendPacketOut(dpid uint64, po *openflow.PacketOut) error
	// RequestStats performs a synchronous stats exchange.
	RequestStats(dpid uint64, req *openflow.StatsRequest) (*openflow.StatsReply, error)
	// Barrier performs a synchronous barrier exchange.
	Barrier(dpid uint64) error
	// Switches lists connected datapath ids.
	Switches() []uint64
	// Ports lists the ports a switch advertised at handshake.
	Ports(dpid uint64) []openflow.PhyPort
	// Topology exposes discovered inter-switch links.
	Topology() []LinkInfo
}

// LinkInfo is one discovered unidirectional inter-switch adjacency.
type LinkInfo struct {
	SrcDPID uint64
	SrcPort uint16
	DstDPID uint64
	DstPort uint16
}

// AppRunner invokes an app's event handler. The default runner
// (directRunner) calls the handler inline and lets panics propagate —
// the monolithic fate-sharing architecture. AppVisor and Crash-Pad
// supply runners that isolate and recover instead.
type AppRunner interface {
	// RunEvent delivers ev to app. A returned AppFailure describes a
	// crash that the runner could not (or chose not to) recover.
	RunEvent(app App, ctx Context, ev Event) *AppFailure
}

// AppFailure describes an SDN-App crash surfaced to the controller.
type AppFailure struct {
	App        string
	Event      Event
	PanicValue any
	Stack      []byte
}

func (f *AppFailure) Error() string {
	return fmt.Sprintf("app %q crashed on %v: %v", f.App, f.Event, f.PanicValue)
}

// directRunner is the monolithic mode: no recover. An app panic unwinds
// into the dispatch loop and takes the controller down, exactly like an
// unhandled exception in a FloodLight module thread.
type directRunner struct{}

func (directRunner) RunEvent(app App, ctx Context, ev Event) *AppFailure {
	_ = app.HandleEvent(ctx, ev) // panics propagate: fate sharing
	return nil
}
