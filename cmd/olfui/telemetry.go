package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"sync"
	"time"

	"olfui/internal/flow"
	"olfui/internal/obs"
)

// writeMetrics serializes the registry's final snapshot — counters,
// histograms and the campaign span tree — as indented JSON.
func writeMetrics(path string, reg *obs.Registry) error {
	data, err := json.MarshalIndent(reg.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// startDebugServer serves net/http/pprof under /debug/pprof/ and a live
// registry snapshot under /metrics on its own mux (nothing leaks onto
// http.DefaultServeMux). It returns the bound address — addr may be ":0" —
// and a shutdown func.
func startDebugServer(addr string, reg *obs.Registry) (string, func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(reg.Snapshot()) //nolint:errcheck // best-effort debug endpoint
	})
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln) //nolint:errcheck // Serve returns on Shutdown/Close
	return ln.Addr().String(), func() {
		// Graceful first: a Close here would abort in-flight /metrics
		// responses mid-body (a scraper polling at exit sees a truncated
		// snapshot). Shutdown drains them; the deadline bounds exit latency,
		// falling back to Close for handlers that outlive it.
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		if srv.Shutdown(ctx) != nil {
			srv.Close() //nolint:errcheck // best-effort after deadline
		}
	}, nil
}

// progressReporter renders -progress on stderr: per-provider completion lines
// as they happen plus a periodic one-line rate summary derived from the live
// telemetry counters (classes resolved, live count, queue depth, resolution
// rate, ETA). Individual delta merges are counted but not printed — the
// per-delta lines of the previous implementation went to stdout and
// interleaved with the report. A final summary is flushed exactly once by stopAndFlush.
type progressReporter struct {
	w    io.Writer
	stop chan struct{}
	wg   sync.WaitGroup

	classes       *obs.Counter
	detected      *obs.Counter
	untestable    *obs.Counter
	retargeted    *obs.Counter
	deltas        *obs.Counter
	queueDepth    *obs.Counter
	replayPats    *obs.Counter
	replayDropped *obs.Counter

	// Rate state, touched only by the ticker goroutine and (after it has
	// joined) stopAndFlush.
	start        time.Time
	lastResolved int64
	lastTime     time.Time
}

// newProgressReporter starts the periodic summary goroutine; interval is the
// summary cadence (tests shorten it).
func newProgressReporter(w io.Writer, reg *obs.Registry, interval time.Duration) *progressReporter {
	now := time.Now()
	p := &progressReporter{
		w:             w,
		stop:          make(chan struct{}),
		classes:       reg.Counter("atpg.classes"),
		detected:      reg.Counter("atpg.classes.detected"),
		untestable:    reg.Counter("atpg.classes.untestable"),
		retargeted:    reg.Counter("atpg.classes.retargeted"),
		deltas:        reg.Counter("flow.deltas"),
		queueDepth:    reg.Counter("sched.queue_depth"),
		replayPats:    reg.Counter("flow.sweep.replay.patterns"),
		replayDropped: reg.Counter("flow.sweep.replay.dropped"),
		start:         now,
		lastTime:      now,
	}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
				p.summary(false)
			}
		}
	}()
	return p
}

// event is the campaign Progress callback. It runs under the merge lock, so
// it only prints the rare terminal lines; delta traffic feeds the counters
// the ticker reads.
func (p *progressReporter) event(e flow.Event) {
	if !e.Done {
		return
	}
	if e.Err != nil {
		fmt.Fprintf(p.w, "  provider %-24s done (%d deltas, err=%s)\n", e.Provider, e.Seq, e.ErrString())
		return
	}
	fmt.Fprintf(p.w, "  provider %-24s done (%d deltas)\n", e.Provider, e.Seq)
}

// stopAndFlush ends the ticker goroutine and prints the final summary once.
func (p *progressReporter) stopAndFlush() {
	close(p.stop)
	p.wg.Wait()
	p.summary(true)
}

// summary prints one rate line. Resolved counts detected+untestable classes;
// aborted classes stay "live" (a deeper sweep depth or another provider may
// still resolve them), so the ETA is an estimate of full resolution.
func (p *progressReporter) summary(final bool) {
	now := time.Now()
	resolved := p.detected.Load() + p.untestable.Load()
	if final {
		el := now.Sub(p.start)
		rate := 0.0
		if s := el.Seconds(); s > 0 {
			rate = float64(resolved) / s
		}
		fmt.Fprintf(p.w, "  progress: %d classes resolved in %v (%.0f classes/s, %d deltas merged)\n",
			resolved, el.Round(time.Millisecond), rate, p.deltas.Load())
		if pats := p.replayPats.Load(); pats > 0 {
			// Warm-start view: patterns the depth sweep replayed across depths
			// and the classes that resolved without a search because of it.
			fmt.Fprintf(p.w, "  replay: %d patterns graded across depths, %d classes dropped before search\n",
				pats, p.replayDropped.Load())
		}
		return
	}
	// Depth sweeps re-count re-targeted classes on atpg.classes; the
	// retargeted counter backs those duplicates out so live never
	// over-reports the classes still awaiting resolution.
	classes := p.classes.Load()
	live := classes - resolved - p.retargeted.Load()
	rate := 0.0
	if dt := now.Sub(p.lastTime).Seconds(); dt > 0 {
		rate = float64(resolved-p.lastResolved) / dt
	}
	p.lastResolved, p.lastTime = resolved, now
	eta := "?"
	if rate > 0 && live > 0 {
		eta = time.Duration(float64(live) / rate * float64(time.Second)).Round(time.Second).String()
	} else if live == 0 {
		eta = "0s"
	}
	// The queue depth counts the classes not yet handed to a worker,
	// campaign-wide across every running GenerateAll.
	fmt.Fprintf(p.w, "  progress: %d/%d classes resolved, %d live, %d queued, %.0f classes/s, ETA %s\n",
		resolved, classes, live, p.queueDepth.Load(), rate, eta)
}
