package main

import (
	"encoding/json"
	"fmt"
	"sort"
)

// finish turns a run's accumulated measurements into metrics. planted
// is how many app crashes the workload planted (0 for quorum-failover,
// whose faults are leader kills).
func (b *bench) finish(a *accum, planted int) {
	b.acc = a
	h := &b.harvest
	var journalErrs error
	if h.journalErrs != 0 {
		journalErrs = fmt.Errorf("%v journal appends failed", h.journalErrs)
	}
	b.check("no-journal-errors", journalErrs)

	completed := b.tr.completed.Load()
	b.attempted = a.injected
	b.failed = a.injected - completed + b.tr.appFailures.Load() + a.unplanned +
		int64(h.journalErrs) + int64(a.quorumTOs)
	if b.failed < 0 {
		b.failed = 0
	}

	b.setE2E("setup_s", "s", median(b.setups))
	b.note("setup_s: median of %d set-ups (state open, stack start, switch connect, table fill)", len(b.setups))

	lat := sortedCopy(a.lat)
	q := highestSupported(len(lat)/max(len(a.p50), 1), 0.5, 0.9, 0.99)
	b.setE2E("latency_p50_us", "us", median(a.p50)/1e3)
	b.note("latency_p90_us %.1f; latency: median over %d open-loop windows of each window's p50/p90, %d samples in all, timed from their due time; each window supports up to p%g (>=%d samples beyond)",
		median(a.p90)/1e3, len(a.p50), len(lat), 100*q, minTail)
	b.note("pooled: p50 %.1f us, p90 %.1f us, p%g %.1f us; generator lateness p50 %.1f us",
		percentile(lat, 0.5)/1e3, percentile(lat, 0.9)/1e3, 100*highestSupported(len(lat), 0.5, 0.9, 0.99, 0.999),
		percentile(lat, highestSupported(len(lat), 0.5, 0.9, 0.99, 0.999))/1e3, median(a.lateness)/1e3)

	rec := b.tr.recoveries
	kind := "app crash: Crash-Pad entry to return with the app restored"
	if len(a.failover) > 0 {
		rec = a.failover
		kind = "leader kill: KillLeader to first event completed on the successor"
	}
	a.recoveryP50 = median(rec)
	b.note("recovery.p50_ms %.3f: median of %d faults (%s)", a.recoveryP50/1e6, len(rec), kind)
	if len(a.failover) > 0 {
		b.note("failover_unavail_ms %.2f  promote_ms %.2f  resume_ms %.2f  cluster LastMTTR p50 %.2f ms",
			median(a.failover)/1e6, median(a.promote)/1e6, median(a.resume)/1e6, median(a.mttr)/1e6)
	} else {
		b.note("app_recovery_p50_us %.1f over %d planted crashes", median(rec)/1e3, planted)
	}

	if rss, err := peakRSSMiB(); err == nil {
		b.setE2E("peak_rss_mb", "MiB", rss)
	} else {
		b.check("peak-rss-readable", err)
	}

	b.setE2E("throughput_eps", "ev/s", median(a.tput))
	b.setE2E("allocs_per_event", "count", float64(a.satMallocs)/float64(max(a.satEvents, 1)))
	b.note("throughput: median of %d saturated windows (%d events, %d kept in flight)", len(a.tput), a.satEvents, satWindow)
	b.note("events_failed_frac %.6f (%d failed of %d injected)", float64(b.failed)/float64(max(b.attempted, 1)), b.failed, b.attempted)

	if b.traced {
		b.layerMetrics(a, planted)
	}
}

// layerMetrics derives the per-layer metrics of a traced run.
func (b *bench) layerMetrics(a *accum, planted int) {
	l := &a.led
	h := &b.harvest
	perEvent := func(ns float64) float64 { return ns / float64(max(l.events, 1)) / 1e3 }
	sum := 0.0
	for _, v := range l.stage {
		sum += v
	}
	for _, i := range []int{stLateness, stQueue, stSnapRPC, stAppSnap, stCkptPut, stRelay, stAppHandle} {
		b.setLayer(stageNames[i], "us", perEvent(l.stage[i]))
	}
	b.setLayer("netlog.txn_us", "us", perEvent(l.stage[stSend]+l.stage[stJournal]+l.stage[stCommit]))
	b.setLayer("stage.unaccounted_us", "us", perEvent(l.total-sum))

	ev := float64(max(h.events, 1))
	b.setLayer("durable.commits_per_event", "count", h.commits/ev)
	b.setLayer("durable.bytes_per_event", "B", h.journalBytes/ev)
	b.setLayer("checkpoint.bytes_per_event", "B", h.ckptBytes/ev)
	b.setLayer("flightrec.records_per_event", "count", h.flightRecs/ev)
	// The controller observes batch sizes only on the parallel path; in
	// serial dispatch every runner delivery carries one event.
	batch := float64(l.events) / float64(max(l.deliveries, 1))
	if h.batchCount > 0 {
		batch = h.batchSum / h.batchCount
	}
	b.setLayer("controller.batch_size", "count", batch)
	b.setLayer("appvisor.rpcs_per_event", "count", float64(l.rpcs)/float64(max(l.events, 1)))
	b.setLayer("netlog.flowmods_per_event", "count", float64(b.tr.mods.Load())/float64(max(b.tr.traced.Load(), 1)))
	if a.lagN > 0 {
		b.note("replica.lag_records %.2f (mean of %d samples)", a.lagSum/float64(a.lagN), a.lagN)
	}
	b.setLayer("trace_overhead_frac", "ratio", 1-median(a.tputTraced)/median(a.tput))

	b.setLayer("recovery.p50_ms", "ms", a.recoveryP50/1e6)
	if len(a.failover) > 0 {
		b.setLayer("recovery.work_ms", "ms", median(a.failWork)*1e3)
		b.setLayer("faults.recovered_frac", "ratio", float64(len(a.failWork))/float64(len(a.failover)))
	} else {
		b.setLayer("recovery.work_ms", "ms", h.restoreSec/max(h.restores, 1)*1e3)
		b.setLayer("faults.recovered_frac", "ratio", float64(len(b.tr.recoveries))/float64(max(planted, 1)))
	}

	// The ledger must close: stage self times account for the measured
	// per-event latency to within 10%.
	var closes error
	if l.events == 0 {
		closes = fmt.Errorf("no traced paced events")
	} else if resid := l.total - sum; resid > 0.1*l.total || resid < -0.1*l.total {
		closes = fmt.Errorf("stages leave %.1f us of %.1f us unaccounted", perEvent(resid), perEvent(l.total))
	}
	b.check("stage-ledger-closes", closes)
}

// printLedger writes the traced run's stage table.
func (b *bench) printLedger(a *accum) {
	l := &a.led
	if l.events == 0 {
		return
	}
	per := func(ns float64) float64 { return ns / float64(l.events) / 1e3 }
	fmt.Fprintf(b.out, "stage ledger: %d open-loop events, %d runner deliveries, mean us per event\n", l.events, l.deliveries)
	sum := 0.0
	for i, v := range l.stage {
		sum += v
		fmt.Fprintf(b.out, "  %-30s %10.2f\n", stageNames[i], per(v))
	}
	fmt.Fprintf(b.out, "  %-30s %10.2f\n", "sum of stages", per(sum))
	fmt.Fprintf(b.out, "  %-30s %10.2f\n", "measured latency (mean)", per(l.total))
	fmt.Fprintf(b.out, "  %-30s %10.2f (%.2f%% of latency)\n", "stage.unaccounted_us", per(l.total-sum), 100*(l.total-sum)/l.total)
}

// result is the last line of the benchmark's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report prints the human-readable block and returns the result.
func (b *bench) report(a *accum) result {
	ms := b.e2e
	if b.traced {
		ms = b.layer
	}
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(b.out, "%-30s %14.4f %s\n", n, ms[n].Value, ms[n].Unit)
	}
	for _, n := range b.notes {
		fmt.Fprintf(b.out, "  %s\n", n)
	}
	if b.traced {
		b.printLedger(a)
	}
	correct := true
	for _, c := range b.checks {
		status := "ok"
		if c.err != nil {
			status = "FAIL: " + c.err.Error()
			correct = false
			b.failed++
		}
		fmt.Fprintf(b.out, "check %-40s %s\n", c.name, status)
	}
	return result{Correct: correct && b.failed == 0, Attempted: max(b.attempted, 1), Failed: b.failed, Metrics: ms}
}

func (r result) line() string {
	out, err := json.Marshal(r)
	if err != nil {
		panic(err) // plain structs of numbers always marshal
	}
	return string(out)
}
