package main

import (
	"context"
	"fmt"

	"olfui/internal/atpg"
	"olfui/internal/bench"
	"olfui/internal/fault"
	"olfui/internal/flow"
	"olfui/internal/journal"
	"olfui/internal/netlist"
	"olfui/internal/obs"
)

// workload is one fixed campaign configuration, named after the olfui
// command line it reproduces. Every worker budget is pinned, never NumCPU,
// so a run does the same work on any machine.
type workload struct {
	name      string
	width     int  // datapath width of the bench design
	limit     int  // backtrack limit; 0 keeps atpg.DefaultBacktrackLimit
	workers   int  // campaign-wide worker budget
	maxFrames int  // depth-sweep budget; 0 leaves the reach scenario unswept
	journal   bool // timed campaigns write a journal (default fsync policy)
	traces    int  // seeded mission traces graded by the pattern provider
	cycles    int  // cycles per mission trace
}

// frames is the reach-constrained scenario's unroll depth, and the sweep's
// starting depth, on every workload: olfui's default.
const frames = 2

// workloads are the benchmark's workloads. BENCHMARK.json gives the reason
// for each; catalog.go says which layer metrics each one should move.
var workloads = []workload{
	// olfui -workers 1 -limit 2048: the default design and scenarios, at a
	// limit that still spends 86% of the backtracks on the 18 classes left
	// Aborted but finishes a campaign in under a second, so that a run
	// times some thirty of them.
	{name: "abort-tail", width: 8, limit: 2048, workers: 1},
	// olfui -width 32 -sweep -max-frames 6 -limit 16 -workers 2 -journal DIR
	{name: "wide-sweep", width: 32, limit: 16, workers: 2, maxFrames: 6, journal: true},
	// olfui -width 16 -limit 16 -workers 1 -patterns FILE, FILE holding
	// four seeded mission traces of 2000 cycles
	{name: "mission-import", width: 16, limit: 16, workers: 1, traces: 4, cycles: 2000},
}

// findWorkload looks a workload up by name.
func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// workloadNames lists the workload names in table order.
func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// backtrackLimit is the limit the engine applies.
func (w workload) backtrackLimit() int {
	if w.limit == 0 {
		return atpg.DefaultBacktrackLimit
	}
	return w.limit
}

// providers is how many providers one campaign runs: the full-scan
// baseline, one per scenario (the swept one included) and the pattern
// provider when traces are graded.
func (w workload) providers() int {
	p := 1 + len(bench.Scenarios(frames))
	if w.traces > 0 {
		p++
	}
	return p
}

// design is one set-up: the bench netlist, its fault universe and, when the
// campaign journals, the fresh journal it writes.
type design struct {
	n *netlist.Netlist
	u *fault.Universe
	j *journal.Journal
}

// setup does what olfui does before its campaign: it builds and validates
// the design, enumerates its universe and, unless journalDir is empty,
// opens a fresh journal there. tr records a span around each package call
// under parent.
func (w workload) setup(journalDir string, tr *tracer, parent int) (design, error) {
	sp := tr.start("bench.build", parent)
	n := bench.Build(w.width)
	err := n.Validate()
	tr.stop(sp)
	if err != nil {
		return design{}, fmt.Errorf("validate %s: %w", n.Name, err)
	}
	sp = tr.start("fault.universe", parent)
	d := design{n: n, u: fault.NewUniverse(n)}
	tr.stop(sp)
	if journalDir != "" {
		if d.j, err = journal.Open(journalDir, journal.Options{}); err != nil {
			return design{}, err
		}
	}
	return d, nil
}

// campaign runs the workload's identification campaign over d, recording
// telemetry into reg exactly as olfui does. With d.j set the campaign
// journals, and resumes whatever the journal recovered.
func (w workload) campaign(d design, sets []flow.PatternSet, reg *obs.Registry) (*flow.Report, error) {
	return flow.RunCampaign(context.Background(), d.n, d.u, bench.Scenarios(frames), flow.Options{
		ATPG:      atpg.Options{BacktrackLimit: w.limit},
		Workers:   w.workers,
		MaxFrames: w.maxFrames,
		Patterns:  sets,
		Metrics:   reg,
		Journal:   d.j,
	})
}
