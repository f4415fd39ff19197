package trace

import (
	"bytes"
	"context"
	"log/slog"
	"strings"
	"testing"
)

func TestSlogTraceCorrelation(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(WrapHandler(slog.NewTextHandler(&buf, nil)))

	sc := SpanContext{TraceID: 0xabcd, SpanID: 0x1234}
	logger.InfoContext(ContextWith(context.Background(), sc), "recovering app", "app", "route")
	line := buf.String()
	if !strings.Contains(line, "trace_id=000000000000abcd") {
		t.Fatalf("log line missing trace_id: %q", line)
	}
	if !strings.Contains(line, "span_id=0000000000001234") {
		t.Fatalf("log line missing span_id: %q", line)
	}

	buf.Reset()
	logger.InfoContext(context.Background(), "untraced line")
	if strings.Contains(buf.String(), "trace_id") {
		t.Fatalf("untraced line gained a trace_id: %q", buf.String())
	}

	// WithAttrs/WithGroup must preserve the wrapper.
	buf.Reset()
	logger.With("component", "crashpad").InfoContext(ContextWith(context.Background(), sc), "x")
	if !strings.Contains(buf.String(), "trace_id=") {
		t.Fatalf("With() dropped trace correlation: %q", buf.String())
	}
}

func TestSlogCrashCorrelation(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(WrapHandler(slog.NewTextHandler(&buf, nil)))

	// App + ticket stamp alongside trace ids.
	ctx := ContextWith(context.Background(), SpanContext{TraceID: 0xabcd, SpanID: 1})
	ctx = ContextWithCrash(ctx, "lswitch", 7)
	logger.InfoContext(ctx, "recovered")
	line := buf.String()
	for _, want := range []string{"trace_id=000000000000abcd", "app=lswitch", "crashpad_ticket=7"} {
		if !strings.Contains(line, want) {
			t.Fatalf("log line missing %q: %q", want, line)
		}
	}

	// App alone (no ticket yet) stamps only the app.
	buf.Reset()
	logger.InfoContext(ContextWithCrash(context.Background(), "router", 0), "detected")
	line = buf.String()
	if !strings.Contains(line, "app=router") || strings.Contains(line, "crashpad_ticket") {
		t.Fatalf("app-only stamp wrong: %q", line)
	}

	// Empty attribution adds nothing.
	buf.Reset()
	logger.InfoContext(ContextWithCrash(context.Background(), "", 0), "plain")
	if strings.Contains(buf.String(), "app=") || strings.Contains(buf.String(), "crashpad_ticket") {
		t.Fatalf("empty crash info stamped attrs: %q", buf.String())
	}

	if app, ticket := CrashFromContext(context.Background()); app != "" || ticket != 0 {
		t.Fatalf("CrashFromContext on empty ctx = %q, %d", app, ticket)
	}
}
