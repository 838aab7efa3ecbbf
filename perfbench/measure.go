package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"syscall"
	"time"

	"olfui/internal/bench"
	"olfui/internal/flow"
	"olfui/internal/journal"
	"olfui/internal/obs"
)

// config holds one run's command-line settings.
type config struct {
	seed    int64
	seconds float64 // timed campaigns start until this much time has passed
	traced  bool    // add the traced campaign and report the per-layer metrics
	out     string  // directory for scratch journals and the span trace
}

// Repetitions. Timed campaigns fill the run's seconds but never number
// fewer than minCampaigns. Set-up and resume take milliseconds, so several
// of each follow every timed campaign: their samples spread over the whole
// run, as the campaigns' do, instead of catching one moment of it.
const (
	minCampaigns       = 3
	setupsPerCampaign  = 8
	resumesPerCampaign = 8
)

const mib = 1 << 20

// result is the run's final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metric is one printed value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runner carries one run: its workload and inputs, scratch space, the
// reference workload, the classification digest every report must match,
// and the tally of checked campaigns and resumes.
type runner struct {
	w         workload
	cfg       config
	stderr    io.Writer
	scratch   string
	sets      []flow.PatternSet
	ref       *reference
	digest    string
	dirs      int
	attempted int
	failed    int
}

// outcome is one checked campaign: what it cost and found and, for the
// traced campaign only, its report and registry snapshot. Timed campaigns
// keep no report alive, because peak RSS is a metric.
type outcome struct {
	cost
	scale                   float64 // brings the campaign's times to the reference host
	aborted, funcUntestable int
	report                  *flow.Report
	snap                    *obs.Snapshot
}

// samples are one run's samples by metric name: reported as the metrics
// report them, the times scaled to the reference host, and raw the times
// as measured.
type samples struct {
	reported, raw map[string][]float64
}

// addTime records one timed sample of metric name, as reported and as
// measured.
func (s samples) addTime(name string, reported, raw float64) {
	s.reported[name] = append(s.reported[name], reported)
	s.raw[name] = append(s.raw[name], raw)
}

// cost is what one call took: wall and process CPU time, and heap bytes
// allocated.
type cost struct {
	wall, cpu time.Duration
	alloc     uint64
}

// scaledWall brings the wall time to the reference host at scale. Only the
// part the process spent on a CPU is scaled; the rest, waiting for fsync,
// is kept as measured, because the host's drift slows the one and not the
// other. Without this, resume_s, a millisecond of which is fsync, read 10%
// lower in runs where the reference ran 1.6 times slower.
func (c cost) scaledWall(scale float64) float64 {
	on := min(c.cpu, c.wall).Seconds()
	return c.wall.Seconds() - on + on*scale
}

// measure performs one run: an untimed warm-up campaign, timed campaigns
// for cfg.seconds, each followed by timed resumes and set-ups, and with
// cfg.traced one traced campaign. The reference workload runs before and
// after each campaign and after each batch of resumes and set-ups, and
// every timed sample is scaled by the two runs around it. It prints one
// line per metric to stdout. Failed campaigns, resumes and checks are
// logged to stderr and counted in the result; the error return is for a
// run that could not be carried out.
func measure(w workload, cfg config, stdout, stderr io.Writer) (result, error) {
	if err := os.MkdirAll(cfg.out, 0o777); err != nil {
		return result{}, err
	}
	scratch, err := os.MkdirTemp(cfg.out, "run-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(scratch)
	r := &runner{w: w, cfg: cfg, stderr: stderr, scratch: scratch, ref: newReference(w.workers)}
	if w.traces > 0 {
		if r.sets, err = missionTraces(bench.Build(w.width), uint64(cfg.seed), w.traces, w.cycles); err != nil {
			return result{}, err
		}
	}

	// Nothing is timed from the process's first campaign, nor from the
	// reference's first run: they pay for cold caches and heap growth. The
	// warm-up campaign journals on every workload, so that the workloads
	// whose timed campaigns do not journal still have a finished journal to
	// time resumes on.
	warm := r.dir("warm")
	_, warmOK := r.campaign(warm, nil, -1)
	r.ref.run()

	var runs []outcome
	s := samples{reported: map[string][]float64{}, raw: map[string][]float64{}}
	var refs []float64
	before := r.ref.run()
	start := time.Now()
	for i := 0; i < minCampaigns || time.Since(start).Seconds() < cfg.seconds; i++ {
		dir := ""
		if w.journal {
			dir = r.dir("campaign")
		}
		o, ok := r.campaign(dir, nil, -1)
		mid := r.ref.run()
		if ok {
			o.scale = scale(before, mid)
			runs = append(runs, o)
		}
		// Resume the journal this campaign finished or, where timed
		// campaigns do not journal, the warm-up campaign's. The first
		// resume and set-up after a campaign are untimed: they refill the
		// caches the campaign and the reference evicted.
		finished, finishedOK := warm, warmOK
		if dir != "" {
			finished, finishedOK = dir, ok
		}
		var resumes, setups []cost
		for k := -1; finishedOK && k < resumesPerCampaign; k++ {
			if c, ok := r.resume(finished); ok && k >= 0 {
				resumes = append(resumes, c)
			}
		}
		for k := -1; k < setupsPerCampaign; k++ {
			c, err := r.timeSetup()
			if err != nil {
				return result{}, err
			}
			if k >= 0 {
				setups = append(setups, c)
			}
		}
		after := r.ref.run()
		for _, c := range resumes {
			s.addTime("resume_s", c.scaledWall(scale(mid, after)), c.wall.Seconds())
		}
		for _, c := range setups {
			s.addTime("setup_s", c.scaledWall(scale(mid, after)), c.wall.Seconds())
		}
		refs = append(refs, before, mid)
		before = after
		if dir != "" {
			os.RemoveAll(dir)
		}
	}
	refs = append(refs, before)

	specs := endToEnd
	values := endToEndValues(s, runs)
	if cfg.traced {
		specs, s = perLayer, samples{}
		if values, err = r.traced(warm, values["campaign_s"]); err != nil {
			return result{}, err
		}
	}
	m, err := metrics(specs, values)
	if err != nil {
		return result{}, err
	}
	printMetrics(stdout, specs, values, s)
	fmt.Fprintf(stdout, "perfbench: reference workload median %.6g s over %d runs; timed metrics are scaled to %g s\n",
		median(refs), len(refs), refSeconds)
	return result{
		Correct:   r.failed == 0 && len(runs) > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   m,
	}, nil
}

// timeSetup times one set-up on a freshly collected heap; on a journaling
// workload it opens, and then discards, a fresh journal.
func (r *runner) timeSetup() (cost, error) {
	dir := ""
	if r.w.journal {
		dir = r.dir("setup")
	}
	var d design
	runtime.GC()
	c, err := measureCall(func() (err error) {
		d, err = r.w.setup(dir, nil, -1)
		return err
	})
	if err != nil {
		return c, err
	}
	if d.j != nil {
		err = d.j.Close()
		os.RemoveAll(dir)
	}
	return c, err
}

// campaign sets up a fresh design, runs one campaign over it and checks the
// report; a non-empty journalDir receives the campaign's journal. tr, when
// set, records the traced campaign's spans under parent, with the
// program's own span tree attached under the RunCampaign span, and the
// outcome keeps the report and snapshot. ok is false when anything failed.
func (r *runner) campaign(journalDir string, tr *tracer, parent int) (o outcome, ok bool) {
	r.attempted++
	sp := tr.start("setup", parent)
	d, err := r.w.setup(journalDir, tr, sp)
	tr.stop(sp)
	if err != nil {
		r.fail("set-up", err)
		return o, false
	}
	reg := obs.New()
	var rep *flow.Report
	runtime.GC()
	sp = tr.start("flow.campaign", parent)
	o.cost, err = measureCall(func() (err error) {
		rep, err = r.w.campaign(d, r.sets, reg)
		return err
	})
	tr.stop(sp)
	if d.j != nil {
		err = errors.Join(err, d.j.Close())
	}
	if err != nil {
		r.fail("campaign", err)
		return o, false
	}
	if tr != nil {
		o.report, o.snap = rep, reg.Snapshot()
		tr.attach(o.snap, sp)
	}
	csp := tr.start("check", parent)
	err = checkReport(rep, tr, csp)
	tr.stop(csp)
	if err == nil {
		err = r.sameDigest(rep)
	}
	if err != nil {
		r.fail("output check", err)
		return o, false
	}
	o.aborted, o.funcUntestable = abortedClasses(rep), rep.Summarize().FuncUntestable
	return o, true
}

// resume copies the finished campaign journal in src, so that every resume
// starts from the journal as the campaign left it, and resumes the copy as
// olfui -resume does, timing journal.Open through the resumed Report. The
// report must have skipped every provider and classify every fault as the
// run's campaigns did.
func (r *runner) resume(src string) (cost, bool) {
	r.attempted++
	dir := r.dir("resume")
	defer os.RemoveAll(dir)
	if _, err := copyDir(src, dir); err != nil {
		r.fail("resume", err)
		return cost{}, false
	}
	d, err := r.w.setup("", nil, -1)
	if err != nil {
		r.fail("resume set-up", err)
		return cost{}, false
	}
	var rep *flow.Report
	runtime.GC()
	c, err := measureCall(func() error {
		j, err := journal.Open(dir, journal.Options{})
		if err != nil {
			return err
		}
		d.j = j
		rep, err = r.w.campaign(d, r.sets, obs.New())
		return errors.Join(err, j.Close())
	})
	if err == nil {
		err = checkResumed(rep, r.digest, r.w.providers())
	}
	if err != nil {
		r.fail("resume", err)
		return c, false
	}
	return c, true
}

// fail counts one failed campaign, resume or check and logs why.
func (r *runner) fail(what string, err error) {
	r.failed++
	fmt.Fprintf(r.stderr, "perfbench: FAIL %s: %v\n", what, err)
}

// dir names a fresh scratch directory; the caller creates it.
func (r *runner) dir(kind string) string {
	r.dirs++
	return filepath.Join(r.scratch, fmt.Sprintf("%s-%d", kind, r.dirs))
}

// sameDigest checks that rep classifies every fault exactly as the run's
// first checked campaign did, which sets the reference.
func (r *runner) sameDigest(rep *flow.Report) error {
	d := rep.ClassDigest()
	if r.digest == "" {
		r.digest = d
	}
	if d != r.digest {
		return fmt.Errorf("class digest %.12s differs from the run's first campaign (%.12s)", d, r.digest)
	}
	return nil
}

// endToEndValues reduces an untraced run to the end-to-end metrics, adding
// the campaigns' samples to s. Each is the median of its reported samples,
// except peak RSS, read once at the end.
func endToEndValues(s samples, runs []outcome) map[string]float64 {
	for _, o := range runs {
		s.addTime("campaign_s", o.scaledWall(o.scale), o.wall.Seconds())
		s.addTime("cpu_s", o.cpu.Seconds()*o.scale, o.cpu.Seconds())
		s.reported["alloc_mb"] = append(s.reported["alloc_mb"], float64(o.alloc)/mib)
		s.reported["aborted_classes"] = append(s.reported["aborted_classes"], float64(o.aborted))
		s.reported["func_untestable"] = append(s.reported["func_untestable"], float64(o.funcUntestable))
	}
	values := map[string]float64{}
	for _, spec := range endToEnd {
		values[spec.name] = median(s.reported[spec.name])
	}
	values["peak_rss_mb"] = peakRSS()
	return values
}

// measureCall runs fn and returns what it cost.
func measureCall(fn func() error) (cost, error) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc, cpu, start := ms.TotalAlloc, cpuTime(), time.Now()
	err := fn()
	c := cost{wall: time.Since(start), cpu: cpuTime() - cpu}
	runtime.ReadMemStats(&ms)
	c.alloc = ms.TotalAlloc - alloc
	return c, err
}

// cpuTime returns the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS returns the process's peak resident set size in MiB; Linux
// reports ru_maxrss in KiB.
func peakRSS() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) / 1024
}

// copyDir copies the regular files of src into the new directory dst and
// returns the bytes copied.
func copyDir(src, dst string) (int64, error) {
	ents, err := os.ReadDir(src)
	if err != nil {
		return 0, err
	}
	if err := os.Mkdir(dst, 0o777); err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return n, err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o666); err != nil {
			return n, err
		}
		n += int64(len(b))
	}
	return n, nil
}

// median returns the median of xs, 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
