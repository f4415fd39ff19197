package status

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"legosdn/internal/apps"
	"legosdn/internal/controller"
	"legosdn/internal/core"
	"legosdn/internal/netsim"
	"legosdn/internal/openflow"
)

// poisonApp crashes on TCP dport 6666.
type poisonApp struct{ *apps.LearningSwitch }

func (a *poisonApp) HandleEvent(ctx controller.Context, ev controller.Event) error {
	if pin, ok := ev.Message.(*openflow.PacketIn); ok {
		if f, err := netsim.ParseFrame(pin.Data); err == nil && f.TpDst == 6666 {
			panic("poison")
		}
	}
	return a.LearningSwitch.HandleEvent(ctx, ev)
}

func setup(t *testing.T) (*core.Stack, *netsim.Network, *httptest.Server) {
	t.Helper()
	stack := core.NewStack(core.Config{Mode: core.ModeLegoSDN})
	t.Cleanup(stack.Close)
	stack.AddApp(func() controller.App {
		return &poisonApp{LearningSwitch: apps.NewLearningSwitch()}
	})
	n := netsim.Single(2, nil)
	if err := stack.ConnectNetwork(n); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(stack, n))
	t.Cleanup(srv.Close)
	return stack, n, srv
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

func TestStatusSummary(t *testing.T) {
	stack, n, srv := setup(t)
	h1, h2 := n.Host("h1"), n.Host("h2")
	n.SendFromHost("h1", netsim.TCPFrame(h1, h2, 1, 80, nil))
	n.SendFromHost("h1", netsim.TCPFrame(h1, h2, 2, 6666, nil)) // crash + recovery
	deadline := time.Now().Add(3 * time.Second)
	for stack.CrashPad.Recoveries.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("recovery never happened")
		}
		time.Sleep(time.Millisecond)
	}

	code, body := get(t, srv.URL+"/status")
	if code != 200 {
		t.Fatalf("status code %d", code)
	}
	var s Summary
	if err := json.Unmarshal([]byte(body), &s); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if s.Mode != "legosdn" || !s.ControllerUp {
		t.Fatalf("summary %+v", s)
	}
	if len(s.Switches) != 1 || s.Switches[0] != 1 {
		t.Fatalf("switches %v", s.Switches)
	}
	var found bool
	for _, a := range s.Apps {
		if a.Name == "learning-switch" {
			found = true
			if a.Disabled || a.StubUp == nil || !*a.StubUp {
				t.Fatalf("app row %+v", a)
			}
		}
	}
	if !found {
		t.Fatalf("app missing from summary: %+v", s.Apps)
	}
	if s.CrashPad == nil || s.CrashPad.Recoveries < 1 || s.CrashPad.Tickets < 1 {
		t.Fatalf("crashpad view %+v", s.CrashPad)
	}
	if s.NetLog == nil || s.NetLog.Rollbacks < 1 {
		t.Fatalf("netlog view %+v", s.NetLog)
	}
}

func TestTicketsEndpoint(t *testing.T) {
	stack, n, srv := setup(t)
	_, body := get(t, srv.URL+"/tickets")
	if !strings.Contains(body, "no tickets") {
		t.Fatalf("empty tickets = %q", body)
	}
	h1, h2 := n.Host("h1"), n.Host("h2")
	n.SendFromHost("h1", netsim.TCPFrame(h1, h2, 2, 6666, nil))
	deadline := time.Now().Add(3 * time.Second)
	for stack.CrashPad.Recoveries.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("recovery never happened")
		}
		time.Sleep(time.Millisecond)
	}
	_, body = get(t, srv.URL+"/tickets")
	if !strings.Contains(body, "Problem Ticket #1") || !strings.Contains(body, "poison") {
		t.Fatalf("tickets body = %q", body)
	}
}

func TestFlowsEndpoint(t *testing.T) {
	_, n, srv := setup(t)
	// An empty table is an empty JSON list, not null.
	if code, body := get(t, srv.URL+"/flows?dpid=1"); code != 200 || body != "[]\n" {
		t.Fatalf("empty table -> %d %q, want 200 \"[]\\n\"", code, body)
	}
	n.Switch(1).Table().Apply(&openflow.FlowMod{
		Match: openflow.MatchAll(), Command: openflow.FlowModAdd, Priority: 9,
		BufferID: openflow.BufferIDNone, OutPort: openflow.PortNone,
		Actions: []openflow.Action{&openflow.ActionOutput{Port: 100}},
	})
	code, body := get(t, srv.URL+"/flows?dpid=1")
	if code != 200 {
		t.Fatalf("code %d", code)
	}
	var flows []FlowView
	if err := json.Unmarshal([]byte(body), &flows); err != nil {
		t.Fatal(err)
	}
	if len(flows) != 1 || flows[0].Priority != 9 || flows[0].Actions != 1 {
		t.Fatalf("flows %+v", flows)
	}
	// Error paths.
	if code, _ := get(t, srv.URL+"/flows"); code != http.StatusBadRequest {
		t.Fatalf("missing dpid -> %d", code)
	}
	if code, _ := get(t, srv.URL+"/flows?dpid=99"); code != http.StatusNotFound {
		t.Fatalf("unknown dpid -> %d", code)
	}
}

// TestHandlerRoutes drives every route through one Handler: the status
// API and the debug mux it is mounted on answer on the same server.
func TestHandlerRoutes(t *testing.T) {
	_, _, srv := setup(t)
	for _, tc := range []struct {
		path string
		want string // substring of the body
	}{
		{"/status", `"mode": "legosdn"`},
		{"/tickets", "no tickets"},
		{"/flows?dpid=1", "[]"},
		{"/metrics", "legosdn_flightrec_records_total"},
		{"/debug/traces", "no traces recorded"},
		{"/debug/traces?format=chrome", `"traceEvents"`},
		{"/debug/autopsy?format=json", "[]"},
		{"/debug/pprof/", "goroutine"},
	} {
		code, body := get(t, srv.URL+tc.path)
		if code != 200 || !strings.Contains(body, tc.want) {
			t.Errorf("GET %s -> %d, body missing %q:\n%s", tc.path, code, tc.want, body)
		}
	}
}
