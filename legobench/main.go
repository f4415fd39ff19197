// Command legobench is the repository's benchmark: it drives LegoSDN's
// full path — AppVisor isolation, a Crash-Pad checkpoint before every
// event, a NetLog transaction around each event's FlowMods, the durable
// WAL and, in one workload, quorum replication — through three seeded
// workloads, checks that the network and the apps end up correct, and
// prints every metric by name and unit. The last line of its output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Run it from the repository root (run.sh builds it first):
//
//	bash legobench/run.sh --workload flow-setup --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics with tracing off; --trace 1
// reports the per-layer metrics and the per-event stage ledger, timed
// at the public seams the stack accepts (see taps.go).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() { os.Exit(run()) }

// run parses the flags, runs the workload(s) and returns the exit code:
// 0 with every check passing, 3 when a check failed, 1 when a run could
// not complete, 2 for bad usage.
func run() int {
	workload := flag.String("workload", "", "workload to run: flow-setup, monitor-crash, quorum-failover, or all")
	seed := flag.Int64("seed", 1, "seed the workload's inputs derive from")
	seconds := flag.Int("seconds", 20, "measured seconds per run")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	stateRoot := flag.String("state-dir", filepath.Join(".bench_build", "state"), "where runs keep their durable state")
	flag.Parse()

	names := []string{*workload}
	if *workload == "all" {
		names = nil
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	specs := make([]workloadSpec, len(names))
	for i, name := range names {
		w, ok := findWorkload(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "legobench: unknown workload %q\n", name)
			return 2
		}
		specs[i] = w
	}
	var results []result
	for _, w := range specs {
		r, err := runOne(os.Stdout, w, *seed, time.Duration(*seconds)*time.Second, *traceFlag == 1, *stateRoot)
		if err != nil {
			fmt.Fprintf(os.Stderr, "legobench: %s: %v\n", w.name, err)
			return 1
		}
		results = append(results, r)
	}
	final := results[0]
	if len(results) > 1 {
		final = combine(names, results)
	}
	fmt.Println(final.line())
	if !final.Correct {
		return 3
	}
	return 0
}

// runOne runs one workload in a fresh state directory and removes it
// afterwards.
func runOne(out io.Writer, w workloadSpec, seed int64, seconds time.Duration, traced bool, stateRoot string) (result, error) {
	root := filepath.Join(stateRoot, fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	if err := os.MkdirAll(root, 0o755); err != nil {
		return result{}, err
	}
	defer os.RemoveAll(root)
	b := newBench(out, seed, seconds, traced, root)
	fmt.Fprintf(out, "legobench workload=%s seed=%d seconds=%d trace=%v\n", w.name, seed, int(seconds.Seconds()), traced)
	fmt.Fprintf(out, "why: %s\n", w.why)
	fmt.Fprintf(out, "env: cores=%d gomaxprocs=%d go=%s os=%s/%s wal_fs=%s wal=group-commit, no device flush; stubs=in-process goroutines, AppVisor RPC over loopback UDP\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, fsType(root))
	if err := w.run(b); err != nil {
		return result{}, err
	}
	return b.report(b.acc), nil
}

// combine folds per-workload results into one line, prefixing metric
// names with the workload.
func combine(names []string, rs []result) result {
	out := result{Correct: true, Metrics: map[string]metric{}}
	for i, r := range rs {
		out.Correct = out.Correct && r.Correct
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		for k, v := range r.Metrics {
			out.Metrics[names[i]+"/"+k] = v
		}
	}
	return out
}
