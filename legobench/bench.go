package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"legosdn/internal/controller"
	"legosdn/internal/core"
	"legosdn/internal/durable"
	"legosdn/internal/metrics"
	"legosdn/internal/netsim"
)

// A run sets its deployment up at least minSetups times, and keeps
// going until setupBudget has been spent or maxSetups reached, so that
// the setup_s median rests on enough samples even when one set-up takes
// milliseconds.
const (
	minSetups   = 3
	maxSetups   = 100
	setupBudget = 1500 * time.Millisecond
)

// moreSetups reports whether another set-up sample is due.
func (b *bench) moreSetups(spent time.Duration) bool {
	n := len(b.setups)
	return n < minSetups || (n < maxSetups && spent < setupBudget)
}

// bench is one run of one workload.
type bench struct {
	seed    int64
	seconds time.Duration
	traced  bool
	root    string // state directory of this run
	out     io.Writer
	tr      *tracker
	limit   int // caps each phase's events (tests); 0 = time only

	dirs   int
	checks []checkResult
	setups []float64 // seconds per set-up

	// Whole-run tallies the result line reports.
	attempted int64
	failed    int64

	e2e   map[string]metric
	layer map[string]metric
	notes []string // context printed under the metrics

	// Counters harvested from every stack the run built.
	harvest harvestSums
	acc     *accum

	// Final flow-table fingerprints of every switch checked, in order.
	fingerprints []string
}

func newBench(out io.Writer, seed int64, seconds time.Duration, traced bool, root string) *bench {
	return &bench{seed: seed, seconds: seconds, traced: traced, root: root, out: out,
		tr: newTracker(), e2e: map[string]metric{}, layer: map[string]metric{}}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type checkResult struct {
	name string
	err  error
}

func (b *bench) check(name string, err error) {
	b.checks = append(b.checks, checkResult{name, err})
}

func (b *bench) note(format string, args ...any) {
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
}

func (b *bench) setE2E(name, unit string, v float64)   { b.e2e[name] = metric{v, unit} }
func (b *bench) setLayer(name, unit string, v float64) { b.layer[name] = metric{v, unit} }

// stateDir returns a fresh directory for one stack or cluster.
func (b *bench) stateDir() string {
	b.dirs++
	return filepath.Join(b.root, fmt.Sprintf("s%03d", b.dirs))
}

// walOptions is the durable configuration every workload uses: group
// commit with the device flush skipped. Framing, the committer's
// batching and the writes run as deployed; the fsync is left out
// because the runs write inside their checkout, on a shared virtual
// disk whose flush latency drifts between back-to-back runs by more
// than the program does — it would measure the host.
var walOptions = durable.Options{GroupCommit: true, NoSync: true}

// single is one durable single-node deployment.
type single struct {
	st    *durable.State
	stack *core.Stack
	net   *netsim.Network
	start int64 // tracker.completed when it began serving
}

func (s *single) close() {
	s.stack.Close()
	_ = s.st.Close() // the run's state is discarded
}

// buildSingle opens durable state, builds the stack with the bench app,
// attaches an n-switch linear fabric and, for the flow workloads, fills
// every switch with its resident flows. It returns the time taken.
func (b *bench) buildSingle(cfg core.Config, newApp func() controller.App, switches int, fill *flowLayout) (*single, float64, error) {
	t0 := time.Now()
	st, err := durable.OpenState(b.stateDir(), 0, walOptions)
	if err != nil {
		return nil, 0, fmt.Errorf("open state: %w", err)
	}
	cfg.Mode = core.ModeLegoSDN
	cfg.Durable = st
	if b.traced {
		cfg.Journal = &journalTap{inner: st.Journal, tr: b.tr}
	}
	stack := core.NewStack(cfg)
	s := &single{st: st, stack: stack, net: netsim.Linear(switches, nil)}
	if err := stack.AddApp(newApp); err != nil {
		s.close()
		return nil, 0, err
	}
	b.interpose(stack)
	if err := stack.ConnectNetwork(s.net); err != nil {
		s.close()
		return nil, 0, fmt.Errorf("connect: %w", err)
	}
	if fill != nil {
		if err := fillTables(stack.Controller, fill); err != nil {
			s.close()
			return nil, 0, err
		}
	}
	s.start = b.tr.completed.Load()
	return s, time.Since(t0).Seconds(), nil
}

// setupSingle builds the deployment repeatedly (see moreSetups),
// keeping the last build.
func (b *bench) setupSingle(cfg core.Config, newApp func() controller.App, switches int, fill *flowLayout) (*single, error) {
	var s *single
	t0 := time.Now()
	for b.moreSetups(time.Since(t0)) {
		if s != nil {
			s.close()
		}
		var secs float64
		var err error
		if s, secs, err = b.buildSingle(cfg, newApp, switches, fill); err != nil {
			return nil, err
		}
		b.setups = append(b.setups, secs)
	}
	return s, nil
}

// interpose installs the runner tap on a serving stack and, when
// tracing, the counting outbound hook.
func (b *bench) interpose(stack *core.Stack) {
	stack.Controller.SetRunner(wrapRunner(stack.CrashPad, b.tr))
	if b.traced {
		stack.Controller.AddOutboundHook(flowModCounter(b.tr))
	}
}

// fillTables installs each switch's resident flows (ordinals
// 0..resident-1) straight through the controller, outside any
// transaction, so NetLog's shadow absorbs them, and barriers.
func fillTables(c *controller.Controller, l *flowLayout) error {
	for dpid := uint64(1); dpid <= uint64(l.switches); dpid++ {
		for k := uint64(0); k < l.resident; k++ {
			if err := c.SendFlowMod(dpid, l.addFlow(l.id(dpid, k))); err != nil {
				return fmt.Errorf("fill switch %d: %w", dpid, err)
			}
		}
		if err := c.Barrier(dpid); err != nil {
			return fmt.Errorf("fill barrier %d: %w", dpid, err)
		}
	}
	return nil
}

// harvestSums accumulates layer counters over every stack of a run.
type harvestSums struct {
	events       int64
	batchSum     float64
	batchCount   float64
	commits      float64
	journalBytes float64
	ckptBytes    float64
	flightRecs   float64
	restoreSec   float64
	restores     float64
	journalErrs  float64
}

// harvestStack adds a stack's registry to the run's sums; events is how many
// bench events it served.
func (b *bench) harvestStack(reg *metrics.Registry, events int64) {
	snap := reg.Snapshot()
	h := &b.harvest
	h.events += events
	bs := snap.Histograms["legosdn_controller_batch_size_events"]
	h.batchSum += bs.Sum
	h.batchCount += float64(bs.Count)
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, "legosdn_durable_commits_total") {
			h.commits += float64(v)
		}
	}
	rs := snap.Histograms["legosdn_crashpad_restore_seconds"]
	h.restoreSec += rs.Sum
	h.restores += float64(rs.Count)
	h.journalBytes += float64(snap.Counters[`legosdn_durable_appended_bytes_total{wal="netlog"}`])
	h.ckptBytes += float64(snap.Counters[`legosdn_durable_appended_bytes_total{wal="checkpoints"}`])
	h.flightRecs += float64(snap.Counters["legosdn_flightrec_records_total"])
	h.journalErrs += float64(snap.Counters["legosdn_netlog_journal_errors_total"])
}

// peakRSSMiB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// mallocs returns the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// fsType names the filesystem holding dir, for the environment record.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch st.Type {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794c7630:
		return "overlayfs"
	default:
		return fmt.Sprintf("0x%x", st.Type)
	}
}
