// Package oftrace records OpenFlow control traffic to a compact binary
// log — a pcap for the control channel. Operators attach a tap to the
// controller and get a replayable, timestamped record of every event
// the apps saw and every command they issued: the raw material for
// offline debugging, for STS-style minimization of long traces, and for
// audit of what a recovered app actually did.
//
// File layout: an 8-byte magic ("OFTRACE2"), then records of
//
//	ts(int64, unix nanos) dir(1) dpid(8) trace(8) len(4) frame(len)
//
// where frame is a complete OpenFlow wire message and trace is the
// event-scoped trace id from internal/trace (0 = untraced), letting
// operators join a control-channel record to the spans at /debug/traces.
// Readers also accept the legacy "OFTRACE1" format, whose records lack
// the trace field.
package oftrace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"legosdn/internal/controller"
	"legosdn/internal/openflow"
)

// Direction marks which way a message traveled.
type Direction uint8

// Directions.
const (
	// In is switch-to-controller (events).
	In Direction = 1
	// Out is controller-to-switch (commands).
	Out Direction = 2
)

func (d Direction) String() string {
	switch d {
	case In:
		return "in"
	case Out:
		return "out"
	default:
		return fmt.Sprintf("dir(%d)", uint8(d))
	}
}

var (
	magicV1 = [8]byte{'O', 'F', 'T', 'R', 'A', 'C', 'E', '1'}
	magicV2 = [8]byte{'O', 'F', 'T', 'R', 'A', 'C', 'E', '2'}
)

// Record header sizes: v1 is ts(8) dir(1) dpid(8) len(4); v2 inserts
// trace(8) before the length.
const (
	hdrLenV1 = 21
	hdrLenV2 = 29
)

// ErrBadTrace reports a malformed trace stream.
var ErrBadTrace = errors.New("oftrace: malformed trace")

// Writer appends records to a trace. Safe for concurrent use.
type Writer struct {
	mu    sync.Mutex
	w     *bufio.Writer
	count uint64
}

// NewWriter starts a trace on w, writing the file header immediately.
// Writers always emit the current (v2) format.
func NewWriter(w io.Writer) (*Writer, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magicV2[:]); err != nil {
		return nil, err
	}
	return &Writer{w: bw}, nil
}

// Record appends one untraced raw frame.
func (w *Writer) Record(dir Direction, dpid uint64, ts time.Time, frame []byte) error {
	return w.RecordTraced(dir, dpid, ts, 0, frame)
}

// RecordTraced appends one raw frame tagged with an event trace id
// (0 = untraced).
func (w *Writer) RecordTraced(dir Direction, dpid uint64, ts time.Time, traceID uint64, frame []byte) error {
	var hdr [hdrLenV2]byte
	binary.BigEndian.PutUint64(hdr[0:8], uint64(ts.UnixNano()))
	hdr[8] = byte(dir)
	binary.BigEndian.PutUint64(hdr[9:17], dpid)
	binary.BigEndian.PutUint64(hdr[17:25], traceID)
	binary.BigEndian.PutUint32(hdr[25:29], uint32(len(frame)))
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, err := w.w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.w.Write(frame); err != nil {
		return err
	}
	w.count++
	return nil
}

// RecordMessage encodes and appends one untraced message.
func (w *Writer) RecordMessage(dir Direction, dpid uint64, ts time.Time, msg openflow.Message) error {
	return w.RecordMessageTraced(dir, dpid, ts, 0, msg)
}

// RecordMessageTraced encodes and appends one message tagged with an
// event trace id.
func (w *Writer) RecordMessageTraced(dir Direction, dpid uint64, ts time.Time, traceID uint64, msg openflow.Message) error {
	frame, err := openflow.Encode(msg)
	if err != nil {
		return err
	}
	return w.RecordTraced(dir, dpid, ts, traceID, frame)
}

// Count reports how many records have been written.
func (w *Writer) Count() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.count
}

// Flush pushes buffered records to the underlying writer.
func (w *Writer) Flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.w.Flush()
}

// Record is one traced message.
type Record struct {
	Time time.Time
	Dir  Direction
	DPID uint64
	// TraceID links the record to its event's spans (0 = untraced, and
	// always 0 when reading a legacy v1 file).
	TraceID uint64
	Frame   []byte
}

// Decode parses the record's frame.
func (r *Record) Decode() (openflow.Message, error) {
	return openflow.Decode(r.Frame)
}

func (r *Record) String() string {
	kind := "?"
	if msg, err := r.Decode(); err == nil {
		kind = msg.Type().String()
	}
	s := fmt.Sprintf("%s %-3s dpid=%d %s (%dB)",
		r.Time.UTC().Format("15:04:05.000000"), r.Dir, r.DPID, kind, len(r.Frame))
	if r.TraceID != 0 {
		s += fmt.Sprintf(" trace=%016x", r.TraceID)
	}
	return s
}

// Reader iterates a trace stream, accepting both the v1 and v2 file
// formats.
type Reader struct {
	r      *bufio.Reader
	hdrLen int
}

// NewReader opens a trace, validating the header.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	var got [8]byte
	if _, err := io.ReadFull(br, got[:]); err != nil {
		return nil, fmt.Errorf("%w: missing header", ErrBadTrace)
	}
	switch got {
	case magicV1:
		return &Reader{r: br, hdrLen: hdrLenV1}, nil
	case magicV2:
		return &Reader{r: br, hdrLen: hdrLenV2}, nil
	}
	return nil, fmt.Errorf("%w: bad magic", ErrBadTrace)
}

// Next returns the next record, or io.EOF at a clean end of trace.
func (r *Reader) Next() (*Record, error) {
	hdr := make([]byte, r.hdrLen)
	if _, err := io.ReadFull(r.r, hdr); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%w: truncated record header", ErrBadTrace)
	}
	rec := &Record{
		Time: time.Unix(0, int64(binary.BigEndian.Uint64(hdr[0:8]))),
		Dir:  Direction(hdr[8]),
		DPID: binary.BigEndian.Uint64(hdr[9:17]),
	}
	rest := hdr[17:]
	if r.hdrLen == hdrLenV2 {
		rec.TraceID = binary.BigEndian.Uint64(hdr[17:25])
		rest = hdr[25:]
	}
	n := binary.BigEndian.Uint32(rest)
	if n > openflow.MaxMessageLen {
		return nil, fmt.Errorf("%w: frame length %d", ErrBadTrace, n)
	}
	rec.Frame = make([]byte, n)
	if _, err := io.ReadFull(r.r, rec.Frame); err != nil {
		return nil, fmt.Errorf("%w: truncated frame", ErrBadTrace)
	}
	return rec, nil
}

// ReadAll drains a trace into memory.
func ReadAll(r io.Reader) ([]*Record, error) {
	tr, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	var out []*Record
	for {
		rec, err := tr.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, rec)
	}
}

// Tap records a controller's control traffic: commands via the outbound
// hook, events via a first-in-chain app subscribed to everything.
type Tap struct {
	w *Writer
}

// Attach wires a tap into the controller. Call before registering apps
// so inbound events are recorded ahead of app processing.
func Attach(c *controller.Controller, w *Writer) *Tap {
	t := &Tap{w: w}
	c.AddOutboundHook(func(dpid uint64, msg openflow.Message) (openflow.Message, error) {
		_ = w.RecordMessage(Out, dpid, time.Now(), msg)
		return msg, nil
	})
	c.Register(t)
	return t
}

// Name implements controller.App.
func (*Tap) Name() string { return "oftrace-tap" }

// Subscriptions implements controller.App.
func (*Tap) Subscriptions() []controller.EventKind { return controller.AllEventKinds() }

// HandleEvent implements controller.App: record and pass.
func (t *Tap) HandleEvent(_ controller.Context, ev controller.Event) error {
	if ev.Message == nil {
		return nil // pseudo-events (switch-down) carry no frame
	}
	_ = t.w.RecordMessageTraced(In, ev.DPID, time.Now(), ev.Trace.TraceID, ev.Message)
	return nil
}
