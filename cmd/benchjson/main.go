// Command benchjson turns `go test -bench` output into a machine-readable
// benchmark record, and doubles as the CI assertion tool for olfui telemetry
// snapshots:
//
//	go test -bench . -benchmem ./... | benchjson > BENCH.json
//	    parses benchmark result lines from stdin into a JSON array — one
//	    object per benchmark with name, iterations, ns/op, and (with
//	    -benchmem) B/op and allocs/op; custom ReportMetric units land in
//	    "metrics". Non-benchmark lines pass through to stderr so failures
//	    stay visible in CI logs.
//
//	benchjson -check-metrics file.json
//	    validates an olfui -metrics-out snapshot: it must parse as an
//	    internal/obs Snapshot and carry non-zero engine and campaign totals
//	    plus a span tree — the smoke test that the telemetry layer actually
//	    recorded a campaign, not just that a file exists.
//
//	benchjson -compare old.json new.json -max-regress 25
//	    compares two benchjson captures: every benchmark of the baseline that
//	    is present in the new capture must not regress its ns/op by more than
//	    -max-regress percent. Improvements and in-budget drifts print as a
//	    table; a baseline benchmark missing from the new capture warns by
//	    name. Any regression, or a new capture holding none of the
//	    baseline's benchmarks, exits non-zero.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"olfui/internal/obs"
)

// Result is one parsed benchmark line.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BPerOp      int64   `json:"b_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
	// Metrics holds custom b.ReportMetric units (e.g. "faults").
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

func main() {
	checkMetrics := flag.String("check-metrics", "",
		"validate an olfui -metrics-out snapshot instead of parsing bench output")
	compare := flag.String("compare", "",
		"baseline benchjson capture; the new capture follows as a positional argument")
	maxRegress := flag.Float64("max-regress", 25,
		"allowed ns/op regression in percent for -compare")
	flag.Parse()

	if *checkMetrics != "" {
		if err := checkSnapshot(*checkMetrics); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		fmt.Printf("benchjson: %s OK\n", *checkMetrics)
		return
	}
	if *compare != "" {
		// The documented invocation puts -max-regress after the positional
		// new.json (benchjson -compare old.json new.json -max-regress 25);
		// the flag package stops at the first positional, so the trailing
		// form is picked up from the remaining arguments here.
		args := flag.Args()
		if len(args) < 1 {
			fmt.Fprintln(os.Stderr, "benchjson: usage: benchjson -compare old.json new.json [-max-regress pct]")
			os.Exit(2)
		}
		newPath := args[0]
		for i := 1; i < len(args); i++ {
			val := ""
			switch {
			case args[i] == "-max-regress" && i+1 < len(args):
				val, i = args[i+1], i+1
			case strings.HasPrefix(args[i], "-max-regress="):
				val = strings.TrimPrefix(args[i], "-max-regress=")
			default:
				fmt.Fprintf(os.Stderr, "benchjson: unexpected argument %q after the new capture\n", args[i])
				os.Exit(2)
			}
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchjson: bad -max-regress value %q\n", val)
				os.Exit(2)
			}
			*maxRegress = v
		}
		if err := compareBench(*compare, newPath, *maxRegress); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	}

	results, err := parseBench(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(results) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(results); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// parseBench scans go-test bench output: result lines start with "Benchmark"
// and alternate value/unit pairs after the iteration count. Anything else
// (headers, PASS/ok, failures) is forwarded to stderr untouched.
func parseBench(r *os.File) ([]Result, error) {
	var out []Result
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		f := strings.Fields(line)
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			fmt.Fprintln(os.Stderr, line)
			continue
		}
		iters, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			fmt.Fprintln(os.Stderr, line)
			continue
		}
		res := Result{Name: f[0], Iterations: iters}
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return nil, fmt.Errorf("line %q: bad value %q", line, f[i])
			}
			switch f[i+1] {
			case "ns/op":
				res.NsPerOp = v
			case "B/op":
				res.BPerOp = int64(v)
			case "allocs/op":
				res.AllocsPerOp = int64(v)
			default:
				if res.Metrics == nil {
					res.Metrics = map[string]float64{}
				}
				res.Metrics[f[i+1]] = v
			}
		}
		out = append(out, res)
	}
	return out, sc.Err()
}

// loadResults reads one benchjson capture (a JSON array of Results).
func loadResults(path string) ([]Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []Result
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("%s: does not parse as a benchjson capture: %w", path, err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: capture holds no benchmarks", path)
	}
	return out, nil
}

// compareBench enforces the per-benchmark ns/op regression budget of the new
// capture against the baseline. A baseline benchmark absent from the new
// capture is reported as a named warning but does not fail the comparison:
// benchmarks are renamed and retired as the suite evolves, and holding the
// regression gate hostage to a stale baseline name forced every rename to
// land with a regenerated baseline in the same change. A capture that holds
// none of the baseline's benchmarks fails, though: the gate then compared
// nothing, which is what a name mismatch such as go test's "-N" GOMAXPROCS
// suffix on every benchmark looks like.
func compareBench(oldPath, newPath string, maxPct float64) error {
	oldRes, err := loadResults(oldPath)
	if err != nil {
		return err
	}
	newRes, err := loadResults(newPath)
	if err != nil {
		return err
	}
	byName := make(map[string]Result, len(newRes))
	for _, r := range newRes {
		byName[r.Name] = r
	}
	bad, missing := 0, 0
	for _, o := range oldRes {
		n, ok := byName[o.Name]
		if !ok {
			fmt.Printf("%-40s WARNING: missing from %s (renamed or retired? regenerate the baseline)\n",
				o.Name, newPath)
			missing++
			continue
		}
		if o.NsPerOp <= 0 {
			return fmt.Errorf("%s: baseline %s has non-positive ns/op", oldPath, o.Name)
		}
		pct := (n.NsPerOp - o.NsPerOp) / o.NsPerOp * 100
		verdict := "ok"
		if pct > maxPct {
			verdict = fmt.Sprintf("REGRESSED beyond %.1f%% budget", maxPct)
			bad++
		}
		fmt.Printf("%-40s %14.0f -> %14.0f ns/op  %+7.1f%%  %s\n",
			o.Name, o.NsPerOp, n.NsPerOp, pct, verdict)
	}
	if bad > 0 {
		return fmt.Errorf("%d benchmark(s) regressed (budget %.1f%%)", bad, maxPct)
	}
	if missing == len(oldRes) {
		return fmt.Errorf("%s holds none of the %d benchmark(s) of %s; nothing was compared",
			newPath, len(oldRes), oldPath)
	}
	if missing > 0 {
		fmt.Printf("benchjson: %d benchmark(s) within %.1f%% of %s, %d missing (warned above)\n",
			len(oldRes)-missing, maxPct, oldPath, missing)
		return nil
	}
	fmt.Printf("benchjson: %d benchmark(s) within %.1f%% of %s\n", len(oldRes), maxPct, oldPath)
	return nil
}

// checkSnapshot asserts the snapshot records a real campaign.
func checkSnapshot(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return fmt.Errorf("%s: does not parse as a telemetry snapshot: %w", path, err)
	}
	for _, name := range []string{"atpg.classes", "atpg.classes.detected", "flow.deltas"} {
		if snap.Counter(name) <= 0 {
			return fmt.Errorf("%s: counter %q is zero — no campaign recorded", path, name)
		}
	}
	if len(snap.Spans) == 0 || snap.FindSpan("campaign") == nil {
		return fmt.Errorf("%s: no campaign span tree", path)
	}
	return nil
}
