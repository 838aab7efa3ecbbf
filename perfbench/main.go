// Command perfbench is the repository's campaign benchmark. It runs one of
// three fixed identification campaigns over the internal/bench design
// through the public packages (bench, fault, flow, journal, sim), checks
// every report, and prints every metric by name with its unit. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 31, "failed": 0, "metrics": {"campaign_s": {"value": 5.12, "unit": "s"}, ...}}
//
// With -trace 0 the metrics are the end-to-end ones, taken over the run's
// untraced campaigns, their times scaled to a reference host by a fixed
// workload run between them (reference.go says why). With -trace 1 one
// traced campaign follows them and
// the metrics are the per-layer ones. catalog.go defines every metric and
// says which end-to-end metric each layer metric should move, on which
// workload; BENCHMARK.json at the repository root lists the same names.
//
// run.sh builds it from source and runs it from the repository root:
//
//	bash perfbench/run.sh --workload abort-tail --seed 1 --seconds 30 --trace 0
//
// It exits with 1 when any campaign, resume or output check failed, and
// with 2 for a bad command line.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses the command line, measures the workload and prints the
// results, returning the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "input seed; it drives the mission traces")
	seconds := fs.Float64("seconds", 10, "seconds of timed campaigns")
	trace := fs.Int("trace", 0, "1 adds a traced campaign and prints the per-layer metrics instead")
	out := fs.String("out", ".bench_build", "directory for scratch journals and the span trace")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: usage: -workload {%s} -seed N -seconds S -trace {0|1}\n",
			strings.Join(workloadNames(), "|"))
		return 2
	}
	// The process runs on as many cores as the campaign's worker budget, on
	// any machine. With a spare core the garbage collector and the pattern
	// provider's grading ran beside the one-worker search, and
	// mission-import's CPU time per campaign spread by 25% between runs on
	// a shared 2-vCPU host.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w.workers))
	fmt.Fprintf(stdout, "perfbench: workload=%s seed=%d seconds=%g trace=%d %s %s/%s NumCPU=%d GOMAXPROCS=%d\n",
		w.name, *seed, *seconds, *trace, runtime.Version(), runtime.GOOS, runtime.GOARCH,
		runtime.NumCPU(), runtime.GOMAXPROCS(0))
	res, err := measure(w, config{seed: *seed, seconds: *seconds, traced: *trace == 1, out: *out}, stdout, stderr)
	if err == nil {
		var line []byte
		if line, err = json.Marshal(res); err == nil {
			fmt.Fprintf(stdout, "%s\n", line)
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}
