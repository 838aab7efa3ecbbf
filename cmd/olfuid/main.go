// Command olfuid serves the identification campaign as a small HTTP/JSON
// service: clients queue runs of the olfui benchmark design, watch their
// progress over server-sent events, and fetch the classification summary and
// rendered report when a run finishes. Every run journals its committed
// evidence (internal/journal) into its own directory under the state root,
// so a server killed mid-campaign — SIGKILL included — resumes every
// incomplete run on restart, re-executing only the providers that had not
// finished.
//
// Endpoints:
//
//	POST /runs              submit a run; body is a JSON runSpec (unknown
//	                        fields are refused), response the new run's
//	                        status (id, state "queued")
//	GET  /runs              list all runs, submission order
//	GET  /runs/{id}         status: state, spec, and — once done — the
//	                        summary, resumed providers, classification digest
//	GET  /runs/{id}/report  the rendered text report (409 until done)
//	GET  /runs/{id}/events  SSE stream of wire-encoded campaign events,
//	                        replayed from the start for late subscribers
//	POST /runs/{id}/cancel  cancel a queued or running run
//	GET  /metrics           the live telemetry registry snapshot (counters,
//	                        histograms, campaign span trees; see internal/obs)
//	GET  /healthz           liveness
//
// Runs execute one at a time in submission order (recovered runs first).
// State lives entirely under -data; deleting a run's directory forgets it.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"olfui/internal/obs"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8335", "listen address")
	data := flag.String("data", "", "state directory: per-run journals, specs, summaries (required)")
	flag.Parse()
	if *data == "" {
		fmt.Fprintln(os.Stderr, "olfuid: -data is required")
		os.Exit(2)
	}
	if err := serve(*addr, *data); err != nil {
		fmt.Fprintln(os.Stderr, "olfuid:", err)
		os.Exit(1)
	}
}

func serve(addr, data string) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	srv, err := newServer(data, obs.New())
	if err != nil {
		return err
	}
	recovered := srv.recoveredCount()
	srv.start(ctx)

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.routes()}
	fmt.Fprintf(os.Stderr, "olfuid: listening on http://%s, state in %s, %d incomplete runs resuming\n",
		ln.Addr(), data, recovered)
	go hs.Serve(ln) //nolint:errcheck // Serve returns on Shutdown

	<-ctx.Done()
	// Graceful stop: the executor's ctx is canceled, which abandons the
	// in-flight campaign with its run.json still saying "running" — the next
	// process resumes it from the journal. SIGKILL skips all of this and
	// recovery handles it identically.
	fmt.Fprintln(os.Stderr, "olfuid: shutting down, in-flight run left resumable")
	sctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	if hs.Shutdown(sctx) != nil {
		hs.Close() //nolint:errcheck // best-effort after deadline
	}
	srv.wait()
	return nil
}
