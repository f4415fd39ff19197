package experiments

import (
	"fmt"
	"sync/atomic"
	"time"

	"legosdn/internal/controller"
	"legosdn/internal/core"
)

// sleepApp models an IO-bound SDN-App handler: each event costs a fixed
// latency (flow-mod round trips, policy lookups against external state)
// rather than CPU. That is the regime the parallel pipeline targets —
// per-app queues overlap the waits even on a single core.
type sleepApp struct {
	name    string
	delay   time.Duration
	handled *atomic.Uint64
}

func (a *sleepApp) Name() string { return a.name }
func (a *sleepApp) Subscriptions() []controller.EventKind {
	return []controller.EventKind{controller.EventPacketIn}
}
func (a *sleepApp) HandleEvent(_ controller.Context, _ controller.Event) error {
	if a.delay > 0 {
		time.Sleep(a.delay)
	}
	a.handled.Add(1)
	return nil
}

// ClaimThroughput measures end-to-end dispatch throughput (events/sec)
// across the serial/parallel × direct/AppVisor grid: four apps, events
// spread over eight switches, each handler costing a fixed IO-like
// latency. The parallel pipeline's claim is that independent apps
// overlap, so events/sec should scale toward the per-app service rate;
// with AppVisor in the path, event batching additionally amortizes the
// per-event UDP round trip.
func ClaimThroughput(quick bool) Table {
	const (
		apps     = 4
		switches = 8
	)
	events := 1200
	delay := 200 * time.Microsecond
	if quick {
		events = 200
	}

	t := Table{
		ID:    "P1",
		Title: "Event pipeline throughput: serial vs parallel dispatch, direct vs AppVisor",
		Columns: []string{"architecture", "dispatch", "apps", "events",
			"elapsed", "events/sec", "speedup"},
		Notes: []string{
			fmt.Sprintf("%d apps x %d events over %d switches; handlers simulate %v of IO-bound work",
				apps, events, switches, delay),
			"speedup is per architecture against its own serial dispatch",
			"appvisor rows relay every event through a stub over UDP; parallel mode batches them (one datagram per coalesced run)",
		},
		Values: map[string]float64{
			"apps": apps, "events": float64(events),
			"handler_delay_us": float64(delay.Microseconds()),
		},
	}

	run := func(isolated, parallel bool) time.Duration {
		var handled atomic.Uint64
		mk := func(i int) controller.App {
			return &sleepApp{name: fmt.Sprintf("sleep%d", i), delay: delay, handled: &handled}
		}
		var c *controller.Controller
		var closer func()
		if isolated {
			stack := core.NewStack(core.Config{Mode: core.ModeIsolated, Parallel: parallel, Flight: benchFlight})
			for i := 0; i < apps; i++ {
				i := i
				if err := stack.AddApp(func() controller.App { return mk(i) }); err != nil {
					panic(fmt.Sprintf("experiments: throughput stub: %v", err))
				}
			}
			c, closer = stack.Controller, stack.Close
		} else {
			c = controller.New(controller.Config{Parallel: parallel, Flight: benchFlight})
			for i := 0; i < apps; i++ {
				c.Register(mk(i))
			}
			closer = c.Stop
		}
		defer closer()

		start := time.Now()
		for i := 1; i <= events; i++ {
			if err := c.Inject(controller.Event{
				Kind: controller.EventPacketIn, DPID: uint64(i%switches + 1),
			}); err != nil {
				panic(fmt.Sprintf("experiments: throughput inject: %v", err))
			}
		}
		want := uint64(events) * apps
		if !waitCond(2*time.Minute, func() bool { return handled.Load() >= want }) {
			panic(fmt.Sprintf("experiments: throughput run stalled at %d/%d deliveries",
				handled.Load(), want))
		}
		return time.Since(start)
	}

	grid := []struct {
		arch     string
		isolated bool
	}{
		{"direct", false},
		{"appvisor", true},
	}
	for _, g := range grid {
		serial := run(g.isolated, false)
		parallel := run(g.isolated, true)
		for _, r := range []struct {
			dispatch string
			elapsed  time.Duration
		}{{"serial", serial}, {"parallel", parallel}} {
			eps := float64(events) / r.elapsed.Seconds()
			speedup := serial.Seconds() / r.elapsed.Seconds()
			t.AddRow(g.arch, r.dispatch, fmt.Sprint(apps), fmt.Sprint(events),
				r.elapsed.Round(time.Millisecond).String(),
				fmt.Sprintf("%.0f", eps), fmt.Sprintf("%.2fx", speedup))
			t.Values[g.arch+"_"+r.dispatch+"_events_per_sec"] = eps
		}
		t.Values[g.arch+"_parallel_speedup"] = serial.Seconds() / parallel.Seconds()
	}
	return t
}
