package flightrec

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Autopsy is the assembled postmortem for one failure: what died, what
// the stack decided, how long each recovery phase took, and the flight
// records that witnessed it. It marshals to JSON for /debug/autopsy and
// the on-disk store, and renders to human text for terminals.
type Autopsy struct {
	ID             int      `json:"id"`
	OpenedUnixNano int64    `json:"opened_unix_nano"`
	App            string   `json:"app"`
	Trigger        string   `json:"trigger"` // app-crash | byzantine | durable-recovery | chaos-invariant
	Class          string   `json:"class,omitempty"`
	Culprit        string   `json:"culprit,omitempty"` // the event being handled when it died
	TraceID        string   `json:"trace_id,omitempty"`
	TicketID       int      `json:"ticket_id,omitempty"`
	Policy         string   `json:"policy,omitempty"`
	Decision       string   `json:"decision,omitempty"`
	Outcome        string   `json:"outcome,omitempty"`
	PanicValue     string   `json:"panic_value,omitempty"`
	Violations     []string `json:"violations,omitempty"`
	Notes          []string `json:"notes,omitempty"`

	// Timeline always holds all eight recovery phases in canonical order.
	Timeline        []PhaseDuration `json:"timeline"`
	RecoverySeconds float64         `json:"recovery_seconds"`

	// Records maps layer name -> the last correlated flight records,
	// oldest first.
	Records map[string][]Record `json:"records,omitempty"`
}

// Render formats the autopsy as human-readable text.
func (a *Autopsy) Render() string {
	if a == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "=== autopsy #%d: %s (%s) ===\n", a.ID, a.App, a.Trigger)
	if a.OpenedUnixNano != 0 {
		fmt.Fprintf(&b, "opened:   %s\n", time.Unix(0, a.OpenedUnixNano).UTC().Format(time.RFC3339Nano))
	}
	if a.Class != "" {
		fmt.Fprintf(&b, "class:    %s\n", a.Class)
	}
	if a.Culprit != "" {
		fmt.Fprintf(&b, "culprit:  %s\n", a.Culprit)
	}
	if a.TraceID != "" {
		fmt.Fprintf(&b, "trace:    %s\n", a.TraceID)
	}
	if a.TicketID != 0 {
		fmt.Fprintf(&b, "ticket:   #%d\n", a.TicketID)
	}
	if a.Policy != "" {
		fmt.Fprintf(&b, "policy:   %s  decision: %s  outcome: %s\n", a.Policy, a.Decision, a.Outcome)
	}
	if a.PanicValue != "" {
		fmt.Fprintf(&b, "panic:    %s\n", a.PanicValue)
	}
	for _, v := range a.Violations {
		fmt.Fprintf(&b, "violation: %s\n", v)
	}
	for _, n := range a.Notes {
		fmt.Fprintf(&b, "note:     %s\n", n)
	}
	fmt.Fprintf(&b, "recovery: %.6fs\n", a.RecoverySeconds)
	b.WriteString("timeline:\n")
	for _, pd := range a.Timeline {
		fmt.Fprintf(&b, "  %-18s %10.6fs\n", pd.Phase, pd.Seconds)
	}
	if len(a.Records) > 0 {
		layers := make([]string, 0, len(a.Records))
		for l := range a.Records {
			layers = append(layers, l)
		}
		sort.Strings(layers)
		for _, l := range layers {
			fmt.Fprintf(&b, "records[%s]:\n", l)
			for _, rec := range a.Records[l] {
				fmt.Fprintf(&b, "  %s\n", rec.String())
			}
		}
	}
	return b.String()
}
