package experiments

import (
	"fmt"

	"legosdn/internal/chaos/campaign"
)

// ClaimChaosSearch (S1) reproduces the paper's minimal-causal-sequence
// idea (§5) at the system level: a seeded chaos campaign searches
// randomized fault schedules for an invariant violation, then delta
// debugging shrinks the failing schedule to a 1-minimal reproducer. A
// deliberately-broken invariant (the synthetic fired-at-least hook)
// stands in for a real bug so the search always has something to find,
// making the shrink ratio the headline: how much of a failing fault
// schedule was noise.
func ClaimChaosSearch(quick bool) Table {
	t := Table{
		ID:      "S1",
		Title:   "Chaos search: fault-schedule minimization to 1-minimal reproducers (§5)",
		Columns: []string{"scenario", "fired atoms", "min atoms", "ratio", "replays", "1-minimal"},
		Notes: []string{
			"broken invariant: synthetic fired-at-least on appvisor/dup (test hook, not a real bug)",
			"ddmin over pinned-replay schedules; each replay re-runs the scenario deterministically",
		},
	}
	runs := 6
	if quick {
		runs = 3
	}
	sum, err := campaign.Run(campaign.Config{
		Seed:      41,
		Runs:      runs,
		Shrink:    true,
		Parallel:  2,
		Synthetic: &campaign.SyntheticCheck{Kind: campaign.SyntheticFiredAtLeast, Point: "appvisor/dup", N: 1},
		Generate:  chaosSearchSpec,
	})
	if err != nil {
		t.Notes = append(t.Notes, fmt.Sprintf("campaign error: %v", err))
		return t
	}

	var ratioSum float64
	shrunk := 0
	for _, rec := range sum.Records {
		if rec.Shrink == nil || !rec.Shrink.Reproducible {
			continue
		}
		sh := rec.Shrink
		t.AddRow(rec.Scenario,
			fmt.Sprintf("%d", sh.OriginalAtoms),
			fmt.Sprintf("%d", sh.MinAtoms),
			fmt.Sprintf("%.2f", sh.Ratio),
			fmt.Sprintf("%d", sh.Replays),
			fmt.Sprintf("%v", sh.Minimal))
		ratioSum += sh.Ratio
		shrunk++
	}
	avgRatio := 1.0
	if shrunk > 0 {
		avgRatio = ratioSum / float64(shrunk)
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"%d seeds, %d failures, %d shrunk, %d total replays, %dms wall",
		sum.SeedsRun, sum.Failures, sum.Shrunk, sum.TotalReplays, sum.WallMS))
	t.Values = map[string]float64{
		"s1_seeds_run":        float64(sum.SeedsRun),
		"s1_failures":         float64(sum.Failures),
		"s1_shrunk":           float64(sum.Shrunk),
		"s1_avg_shrink_ratio": avgRatio,
		"s1_total_replays":    float64(sum.TotalReplays),
	}
	return t
}

// chaosSearchSpec generates the S1 campaign's scenarios: deterministic
// wire-fault runs (dup + delay) cheap enough that dozens of ddmin
// replays stay interactive.
func chaosSearchSpec(runSeed uint64) campaign.ScenarioSpec {
	return campaign.ScenarioSpec{
		Name:            fmt.Sprintf("search-%016x", runSeed),
		Seed:            runSeed,
		Switches:        1,
		Apps:            2,
		Events:          24,
		CheckpointEvery: 4,
		EventTimeoutMS:  250,
		Dup:             0.12,
		Delay:           0.06,
		Deterministic:   true,
	}
}
