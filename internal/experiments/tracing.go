package experiments

import "legosdn/internal/flightrec"

// benchFlight, when set, is the flight recorder shared by the stacks
// and controllers the perf and scale experiments (P1, P2) build, so
// their event pipelines emit spans into one span ring. Package-level
// because the experiment constructors (the Table functions) are called
// through a uniform signature from cmd/legosdn-bench and bench_test.go.
// Other experiments keep one recorder per stack: autopsies correlate
// by transaction id, and each stack numbers transactions from 1.
var benchFlight *flightrec.Recorder

// SetFlight installs (or, with nil, removes) the recorder shared by the
// perf and scale experiments. Call before running experiments; not
// safe to swap while one is in flight.
func SetFlight(r *flightrec.Recorder) { benchFlight = r }
