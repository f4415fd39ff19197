package appvisor

import (
	"fmt"
	"net"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"legosdn/internal/controller"
	"legosdn/internal/flightrec"
	"legosdn/internal/openflow"
)

// StubOptions tunes a Stub.
type StubOptions struct {
	// HeartbeatInterval spaces liveness beacons (default 50ms).
	HeartbeatInterval time.Duration
	// RequestTimeout bounds the app's synchronous Context calls
	// (default 5s).
	RequestTimeout time.Duration
	// QueueSize bounds queued events (default 256).
	QueueSize int
	// Flight records the stub-side handler span of each traced event.
	// The span's parent arrives over the wire (wireVersion 3), so the
	// stub — even as a separate process with its own recorder — joins
	// the trace its proxy started. Nil disables stub-side spans.
	Flight *flightrec.Recorder
	// WireFault, when set, intercepts the stub's event acknowledgments
	// (dgEventDone) for fault injection: a dropped ack makes the proxy
	// see a crash for an event the app in fact processed.
	WireFault WireFault
}

func (o *StubOptions) fill() {
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = 50 * time.Millisecond
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 5 * time.Second
	}
	if o.QueueSize <= 0 {
		o.QueueSize = 256
	}
}

// Stub hosts one SDN-App in an isolated failure domain and bridges it to
// an AppVisor proxy over UDP. The stub is a light-weight wrapper, as the
// paper puts it: it relays events in, converts the app's controller
// calls to RPCs, heartbeats, and — on an app panic — reports the crash
// and dies, exactly as a crashing stub process would.
type Stub struct {
	app  controller.App
	opts StubOptions

	conn *net.UDPConn // connected to the proxy

	mu      sync.Mutex
	waiters map[uint64]chan *datagram

	nextID atomic.Uint64
	events chan stubWork
	dead   atomic.Bool
	done   chan struct{}
	wg     sync.WaitGroup

	// EventsHandled counts events the app processed to completion.
	EventsHandled atomic.Uint64
}

// StartStub launches a stub for app, registering it with the proxy at
// proxyAddr (e.g. "127.0.0.1:7001"). The returned stub is live:
// heartbeats flow and events will be processed in arrival order.
func StartStub(app controller.App, proxyAddr string, opts StubOptions) (*Stub, error) {
	opts.fill()
	raddr, err := net.ResolveUDPAddr("udp", proxyAddr)
	if err != nil {
		return nil, fmt.Errorf("appvisor: resolving proxy address: %w", err)
	}
	conn, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		return nil, fmt.Errorf("appvisor: dialing proxy: %w", err)
	}
	// Fragmented snapshots/restores arrive in bursts; large socket
	// buffers keep loopback UDP from shedding them.
	_ = conn.SetReadBuffer(8 << 20)
	_ = conn.SetWriteBuffer(8 << 20)
	s := &Stub{
		app:     app,
		opts:    opts,
		conn:    conn,
		waiters: make(map[uint64]chan *datagram),
		events:  make(chan stubWork, opts.QueueSize),
		done:    make(chan struct{}),
	}
	reg, err := encodeRegister(app.Name(), app.Subscriptions())
	if err != nil {
		conn.Close()
		return nil, err
	}
	if err := s.send(&datagram{Type: dgRegister, Payload: reg}); err != nil {
		conn.Close()
		return nil, err
	}
	s.wg.Add(3)
	go s.readLoop()
	go s.workLoop()
	go s.heartbeatLoop()
	return s, nil
}

// Alive reports whether the stub (and so the hosted app) is running.
func (s *Stub) Alive() bool { return !s.dead.Load() }

// Kill hard-stops the stub without a crash report, simulating a
// SIGKILL'd stub process. The proxy must discover the death through
// heartbeat loss or RPC timeout.
func (s *Stub) Kill() { s.terminate() }

// terminate stops all stub goroutines and closes the socket.
func (s *Stub) terminate() {
	if !s.dead.CompareAndSwap(false, true) {
		return
	}
	close(s.done)
	s.conn.Close()
	// Fail anything blocked on a Context RPC.
	s.mu.Lock()
	for id, w := range s.waiters {
		close(w)
		delete(s.waiters, id)
	}
	s.mu.Unlock()
}

// die is the wrapper's crash path: report the panic to the proxy, then
// terminate. A real stub process would exit here.
func (s *Stub) die(reason string, stack []byte) {
	s.dieWith(encodeCrash(reason, string(stack)))
}

// dieWith sends a pre-built crash payload (possibly carrying a batch
// index) and terminates.
func (s *Stub) dieWith(payload []byte) {
	_ = s.send(&datagram{Type: dgCrash, Payload: payload})
	s.terminate()
}

func (s *Stub) send(d *datagram) error {
	if f := s.opts.WireFault; f != nil && d.Type == dgEventDone {
		verdict := f("stub", s.app.Name(), d.Type)
		handled, err := applyWireFault(verdict, d,
			s.write,
			func(b []byte) error { _, err := s.conn.Write(b); return err })
		if handled {
			return err
		}
	}
	return s.write(d)
}

func (s *Stub) write(d *datagram) error {
	// Single-frame fast path through a pooled buffer; see Proxy.sendTo.
	if len(d.Payload) <= maxDatagram-headerLen {
		bp := wireBufPool.Get().(*[]byte)
		b, err := appendDatagram((*bp)[:0], d)
		if err == nil {
			*bp = b[:0]
			_, err = s.conn.Write(b)
		}
		wireBufPool.Put(bp)
		return err
	}
	frames, err := marshalFrames(d)
	if err != nil {
		return err
	}
	for _, b := range frames {
		if _, err := s.conn.Write(b); err != nil {
			return err
		}
	}
	return nil
}

func (s *Stub) readLoop() {
	defer s.wg.Done()
	buf := make([]byte, maxDatagram)
	reasm := newReassembler()
	for {
		n, err := s.conn.Read(buf)
		if err != nil {
			return
		}
		// Zero-copy: dv.Payload aliases buf. Events are decoded inline
		// (openflow.Decode copies any bytes it retains); branches that
		// keep the raw payload longer detach() first.
		dv, err := parseDatagramView(buf[:n])
		if err != nil {
			continue
		}
		d, err := reasm.accept(&dv)
		if err != nil || d == nil {
			continue
		}
		switch d.Type {
		case dgRegisterAck:
			// Registration complete; nothing to store stub-side.
		case dgEvent:
			ev, err := decodeEvent(d.Payload)
			if err != nil {
				_ = s.send(&datagram{Type: dgEventDone, ID: d.ID, Payload: statusPayload(err)})
				continue
			}
			s.enqueue(stubWork{kind: dgEvent, evs: []controller.Event{ev}, rpcID: d.ID})
		case dgEventBatch:
			evs, err := decodeEventBatch(d.Payload)
			if err != nil {
				_ = s.send(&datagram{Type: dgEventDone, ID: d.ID, Payload: statusPayload(err)})
				continue
			}
			s.enqueue(stubWork{kind: dgEvent, evs: evs, rpcID: d.ID})
		case dgResponse:
			d.detach() // handed to a waiter, outlives buf
			s.mu.Lock()
			w := s.waiters[d.ID]
			delete(s.waiters, d.ID)
			s.mu.Unlock()
			if w != nil {
				w <- d
			}
		case dgSnapshotReq:
			// Snapshot and restore queue behind the deliveries that came
			// before them, so they never run concurrently with a handler
			// and a snapshot never captures mid-event state. They must
			// not run here either: this loop has to stay free to receive
			// the dgResponse a running handler waits for.
			s.enqueue(stubWork{kind: dgSnapshotReq, rpcID: d.ID})
		case dgRestoreReq:
			d.detach() // queued, and the app's Restore may retain the bytes
			s.enqueue(stubWork{kind: dgRestoreReq, state: d.Payload, rpcID: d.ID})
		case dgShutdown:
			s.terminate()
			return
		}
	}
}

// stubWork is one unit of the stub's work queue, run in arrival order:
// a delivery (kind dgEvent: a single event or a proxy-coalesced batch,
// acknowledged by one dgEventDone under the delivery's RPC id, so the
// same events can be redelivered during replay under a fresh id), a
// snapshot (dgSnapshotReq) or a restore of state (dgRestoreReq).
type stubWork struct {
	kind  uint8
	evs   []controller.Event
	state []byte
	rpcID uint64
}

// replyType is the datagram type that answers w.
func (w stubWork) replyType() uint8 {
	switch w.kind {
	case dgSnapshotReq:
		return dgSnapshotReply
	case dgRestoreReq:
		return dgRestoreDone
	}
	return dgEventDone
}

func (s *Stub) enqueue(w stubWork) {
	select {
	case s.events <- w:
	default:
		_ = s.send(&datagram{Type: w.replyType(), ID: w.rpcID,
			Payload: statusPayload(fmt.Errorf("appvisor: stub queue full"))})
	}
}

func (s *Stub) workLoop() {
	defer s.wg.Done()
	for {
		select {
		case <-s.done:
			return
		case w := <-s.events:
			if s.dead.Load() {
				// Both cases can be ready at once; a dead stub, like an
				// exited process, runs none of its queued work.
				return
			}
			switch w.kind {
			case dgSnapshotReq:
				s.handleSnapshot(w.rpcID)
			case dgRestoreReq:
				s.handleRestore(w.rpcID, w.state)
			default:
				s.handleWork(w)
			}
		}
	}
}

// handleWork runs the app's handler inside the containment boundary,
// event by event in delivery order. A panic mid-batch reports a crash
// carrying the offending event's batch index, then kills the stub; the
// rest of the batch dies with it, exactly as if each event had been
// delivered separately.
func (s *Stub) handleWork(w stubWork) {
	var firstErr error
	for i, ev := range w.evs {
		var handlerErr error
		sp := s.opts.Flight.StartSpan(ev.Trace, "stub.handle")
		if sp != nil {
			sp.Attr("app", s.app.Name())
			ev.Trace.SpanID = sp.Context().SpanID
		}
		crashed := func() (crashed bool) {
			defer func() {
				if r := recover(); r != nil {
					crashed = true
					sp.Attr("panic", fmt.Sprint(r))
					sp.End()
					payload := encodeCrash(fmt.Sprint(r), string(debug.Stack()))
					if len(w.evs) > 1 {
						payload = appendCrashIndex(payload, i)
					}
					s.dieWith(payload)
				}
			}()
			handlerErr = s.app.HandleEvent(&stubContext{s: s, delivery: w.rpcID, index: i}, ev)
			return false
		}()
		if crashed {
			return
		}
		sp.End()
		s.EventsHandled.Add(1)
		if handlerErr != nil && firstErr == nil {
			firstErr = handlerErr
		}
	}
	_ = s.send(&datagram{Type: dgEventDone, ID: w.rpcID, Payload: statusPayload(firstErr)})
}

func (s *Stub) handleSnapshot(id uint64) {
	snap, ok := s.app.(controller.Snapshotter)
	if !ok {
		_ = s.send(&datagram{Type: dgSnapshotReply, ID: id,
			Payload: statusPayload(fmt.Errorf("app %q does not snapshot", s.app.Name()))})
		return
	}
	state, err := snap.Snapshot()
	if err != nil {
		_ = s.send(&datagram{Type: dgSnapshotReply, ID: id, Payload: statusPayload(err)})
		return
	}
	payload := append(statusPayload(nil), state...)
	_ = s.send(&datagram{Type: dgSnapshotReply, ID: id, Payload: payload})
}

func (s *Stub) handleRestore(id uint64, state []byte) {
	snap, ok := s.app.(controller.Snapshotter)
	if !ok {
		_ = s.send(&datagram{Type: dgRestoreDone, ID: id,
			Payload: statusPayload(fmt.Errorf("app %q does not snapshot", s.app.Name()))})
		return
	}
	err := snap.Restore(state)
	_ = s.send(&datagram{Type: dgRestoreDone, ID: id, Payload: statusPayload(err)})
}

func (s *Stub) heartbeatLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.opts.HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-t.C:
			_ = s.send(&datagram{Type: dgHeartbeat})
		}
	}
}

// rpc performs one synchronous exchange with the proxy.
func (s *Stub) rpc(r request) (*datagram, error) {
	if s.dead.Load() {
		return nil, fmt.Errorf("appvisor: stub is dead")
	}
	payload, err := encodeRequest(r)
	if err != nil {
		return nil, err
	}
	id := s.nextID.Add(1)
	w := make(chan *datagram, 1)
	s.mu.Lock()
	s.waiters[id] = w
	s.mu.Unlock()
	if err := s.send(&datagram{Type: dgRequest, ID: id, Payload: payload}); err != nil {
		s.mu.Lock()
		delete(s.waiters, id)
		s.mu.Unlock()
		return nil, err
	}
	// A stopped timer, not time.After: under go 1.22 timer semantics an
	// unstopped timer stays live until it fires, one per RPC in flight
	// over the last RequestTimeout.
	timeout := time.NewTimer(s.opts.RequestTimeout)
	defer timeout.Stop()
	select {
	case d, ok := <-w:
		if !ok {
			return nil, fmt.Errorf("appvisor: stub terminated mid-call")
		}
		return d, nil
	case <-timeout.C:
		s.mu.Lock()
		delete(s.waiters, id)
		s.mu.Unlock()
		return nil, fmt.Errorf("appvisor: proxy call timed out")
	}
}

// stubContext implements controller.Context for the hosted app by
// translating every call into a proxy RPC. Each one serves one event of
// one delivery, and stamps its calls with both.
type stubContext struct {
	s        *Stub
	delivery uint64
	index    int
}

// call relays one Context call for the context's event.
func (c *stubContext) call(op uint8, dpid uint64, msg openflow.Message) (*datagram, error) {
	return c.s.rpc(request{Op: op, Delivery: c.delivery, Index: c.index, DPID: dpid, Msg: msg})
}

func (c *stubContext) SendMessage(dpid uint64, msg openflow.Message) error {
	d, err := c.call(opSendMessage, dpid, msg)
	if err != nil {
		return err
	}
	status, _, ok := decodeStatus(d.Payload)
	if !ok {
		return ErrBadDatagram
	}
	return status
}

func (c *stubContext) SendFlowMod(dpid uint64, fm *openflow.FlowMod) error {
	return c.SendMessage(dpid, fm)
}

func (c *stubContext) SendPacketOut(dpid uint64, po *openflow.PacketOut) error {
	return c.SendMessage(dpid, po)
}

func (c *stubContext) RequestStats(dpid uint64, req *openflow.StatsRequest) (*openflow.StatsReply, error) {
	d, err := c.call(opStats, dpid, req)
	if err != nil {
		return nil, err
	}
	status, rest, ok := decodeStatus(d.Payload)
	if !ok {
		return nil, ErrBadDatagram
	}
	if status != nil {
		return nil, status
	}
	msg, err := openflow.Decode(rest)
	if err != nil {
		return nil, err
	}
	sr, ok := msg.(*openflow.StatsReply)
	if !ok {
		return nil, fmt.Errorf("appvisor: stats answered by %v", msg.Type())
	}
	return sr, nil
}

func (c *stubContext) Barrier(dpid uint64) error {
	d, err := c.call(opBarrier, dpid, nil)
	if err != nil {
		return err
	}
	status, _, ok := decodeStatus(d.Payload)
	if !ok {
		return ErrBadDatagram
	}
	return status
}

func (c *stubContext) Switches() []uint64 {
	d, err := c.call(opSwitches, 0, nil)
	if err != nil {
		return nil
	}
	out, err := decodeSwitches(d.Payload)
	if err != nil {
		return nil
	}
	return out
}

func (c *stubContext) Ports(dpid uint64) []openflow.PhyPort {
	d, err := c.call(opPorts, dpid, nil)
	if err != nil {
		return nil
	}
	out, err := decodePorts(d.Payload)
	if err != nil {
		return nil
	}
	return out
}

func (c *stubContext) Topology() []controller.LinkInfo {
	d, err := c.call(opTopology, 0, nil)
	if err != nil {
		return nil
	}
	out, err := decodeTopology(d.Payload)
	if err != nil {
		return nil
	}
	return out
}
