package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"olfui/internal/obs"
	"olfui/internal/wire"
)

// startTestServer builds a server over data and runs its executor until the
// test ends.
func startTestServer(t *testing.T, data string) *server {
	t.Helper()
	srv, err := newServer(data, obs.New())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(func() { cancel(); srv.wait() })
	srv.start(ctx)
	return srv
}

func waitState(t *testing.T, r *run, want runState, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if st := r.state(); st == want {
			return
		} else if st == runFailed && want != runFailed {
			r.mu.Lock()
			msg := r.info.Error
			r.mu.Unlock()
			t.Fatalf("run %s failed: %s", r.id, msg)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("run %s stuck in %q, want %q", r.id, r.state(), want)
}

// digestOf runs spec to completion on its own state dir and returns the
// classification digest — the uninterrupted reference for resume tests.
func digestOf(t *testing.T, spec runSpec) string {
	t.Helper()
	srv := startTestServer(t, t.TempDir())
	r, err := srv.submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, r, runDone, 2*time.Minute)
	return r.status().ClassDigest
}

// TestServerHTTP exercises the whole HTTP surface against a real small run.
func TestServerHTTP(t *testing.T) {
	srv := startTestServer(t, t.TempDir())
	hs := httptest.NewServer(srv.routes())
	defer hs.Close()

	// Bad specs are rejected before anything is queued, each for its own
	// cause: out-of-range knobs, a worker budget above maxWorkers, unknown
	// fields (a typo, a retired knob), content after the spec object, and a
	// body over the size limit. They go to a listener of their own, closed
	// before any run starts: the server drops the oversized body's
	// connection, and closing it lingers for half a second.
	bad := httptest.NewServer(srv.routes())
	for body, cause := range map[string]string{
		`{"width":-1}`:                            "width must be in [1,64]",
		`{"workers":100000}`:                      "workers must be in [0,256]",
		`{"shards":2}`:                            `unknown field \"shards\"`,
		`{"max_frame":6}`:                         `unknown field \"max_frame\"`,
		`{"width":2,"frames":1}{"workers":300}`:   "content after the spec",
		`{"width":2,"frames":1} trailing garbage`: "content after the spec",
		`{"width":8,"pad":"` + strings.Repeat("x", maxSpecBytes) + `"}`: "request body too large",
	} {
		resp, err := http.Post(bad.URL+"/runs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), cause) {
			t.Fatalf("bad spec %.40q: got %d %s, want 400 naming %q", body, resp.StatusCode, msg, cause)
		}
	}
	bad.Close()
	srv.mu.Lock()
	queued := len(srv.order)
	srv.mu.Unlock()
	if queued != 0 {
		t.Fatalf("bad specs queued %d runs", queued)
	}

	// Unknown runs 404 everywhere.
	for _, p := range []string{"/runs/nope", "/runs/nope/report", "/runs/nope/events"} {
		resp, err := http.Get(hs.URL + p)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s: got %d, want 404", p, resp.StatusCode)
		}
	}

	// Submit a small real run.
	resp, err := http.Post(hs.URL+"/runs", "application/json", strings.NewReader(`{"width":2,"frames":1}`))
	if err != nil {
		t.Fatal(err)
	}
	var st status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || st.ID == "" {
		t.Fatalf("submit: code %d, status %+v", resp.StatusCode, st)
	}

	r := srv.get(st.ID)
	if r == nil {
		t.Fatalf("submitted run %s not registered", st.ID)
	}
	waitState(t, r, runDone, 2*time.Minute)

	// Status carries the summary and digest once done.
	resp, err = http.Get(hs.URL + "/runs/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.State != runDone || st.Summary == nil || st.ClassDigest == "" {
		t.Fatalf("done status incomplete: %+v", st)
	}
	if st.Summary.Faults == 0 || st.Summary.OverCounted == 0 {
		t.Fatalf("summary lost the campaign result: %+v", st.Summary)
	}

	// The rendered report is served as text.
	resp, err = http.Get(hs.URL + "/runs/" + st.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "flow report") {
		t.Fatalf("report: code %d body %q", resp.StatusCode, body)
	}

	// SSE replays the full stream to a late subscriber, then ends.
	resp, err = http.Get(hs.URL + "/runs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	events, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content type %q", ct)
	}
	sse := string(events)
	if !strings.Contains(sse, `"kind":"event"`) {
		t.Fatalf("event stream carries no wire events:\n%s", sse)
	}
	if !strings.Contains(sse, "event: end") || !strings.Contains(sse, `{"state":"done"}`) {
		t.Fatalf("event stream missing terminal frame:\n%s", sse)
	}
	// Every data frame must decode as a versioned wire message.
	for _, line := range strings.Split(sse, "\n") {
		if raw, ok := strings.CutPrefix(line, "data: "); ok && strings.Contains(line, `"kind"`) {
			if _, err := wire.Decode([]byte(raw)); err != nil {
				t.Fatalf("undecodable SSE frame %q: %v", raw, err)
			}
		}
	}

	// The metrics endpoint serves the live registry.
	resp, err = http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if snap.Counters["flow.deltas"] == 0 {
		t.Fatalf("metrics snapshot recorded no deltas: %v", snap.Counters)
	}

	// Cancelling a queued run cancels it without executing.
	r2, err := srv.submit(runSpec{Width: 2, Frames: 1, DeltaDelayMS: 1000})
	if err != nil {
		t.Fatal(err)
	}
	r3, err := srv.submit(runSpec{Width: 2, Frames: 1})
	if err != nil {
		t.Fatal(err)
	}
	_ = r2
	resp, err = http.Post(hs.URL+"/runs/"+r3.id+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := r3.state(); got != runCanceled {
		t.Fatalf("canceled queued run is %q", got)
	}
}

// TestCrashResume is the service-level acceptance test: a server abandoned
// mid-campaign leaves its run resumable on disk, a fresh server over the
// same state re-enqueues it, and the resumed run completes with the same
// classification digest as an uninterrupted reference — having skipped the
// providers the dead server already finished.
func TestCrashResume(t *testing.T) {
	ref := digestOf(t, runSpec{Width: 4, Frames: 2, Serial: true})

	// Interrupted server: pacing slows the campaign so the kill lands
	// mid-run, after at least one provider completed but before the rest.
	data := t.TempDir()
	srv, err := newServer(data, obs.New())
	if err != nil {
		t.Fatal(err)
	}
	ctx, kill := context.WithCancel(context.Background())
	srv.start(ctx)
	// Serial execution means providers after the kill point have not
	// started, so their work is genuinely missing from the journal.
	r, err := srv.submit(runSpec{Width: 4, Frames: 2, Serial: true, DeltaDelayMS: 250})
	if err != nil {
		t.Fatal(err)
	}

	providerDone := func(frame []byte) bool {
		m, err := wire.Decode(frame)
		return err == nil && m.Event != nil && m.Event.Done && m.Event.Err == ""
	}
	replay, ch, unsubscribe := r.hub.subscribe()
	found := false
	for _, f := range replay {
		found = found || providerDone(f)
	}
	timeout := time.After(time.Minute)
	for !found {
		select {
		case f, ok := <-ch:
			if !ok {
				t.Fatal("campaign finished before it could be killed; raise DeltaDelayMS")
			}
			found = providerDone(f)
		case <-timeout:
			t.Fatal("no provider completed within a minute")
		}
	}
	unsubscribe()
	kill()
	srv.wait()

	var info runInfo
	if err := readJSON(filepath.Join(data, "runs", r.id, "run.json"), &info); err != nil {
		t.Fatal(err)
	}
	if info.State != runRunning {
		t.Fatalf("abandoned run persisted as %q, want %q (resumable)", info.State, runRunning)
	}

	// Restarted server: recovery re-enqueues and resumes the run.
	srv2, err := newServer(data, obs.New())
	if err != nil {
		t.Fatal(err)
	}
	if got := srv2.recoveredCount(); got != 1 {
		t.Fatalf("recovered %d runs, want 1", got)
	}
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer func() { cancel2(); srv2.wait() }()
	srv2.start(ctx2)

	r2 := srv2.get(r.id)
	if r2 == nil {
		t.Fatalf("restarted server forgot run %s", r.id)
	}
	waitState(t, r2, runDone, 2*time.Minute)
	st := r2.status()
	if st.ClassDigest != ref {
		t.Fatalf("resumed run digest %s, reference %s", st.ClassDigest, ref)
	}
	if len(st.Resumed) == 0 {
		t.Fatal("resumed run re-executed everything; at least one provider had finished before the kill")
	}
	if len(st.Resumed) == 4 {
		t.Fatal("kill landed after every provider finished; the resume was not partial — raise DeltaDelayMS")
	}
	t.Logf("resumed run skipped %v", st.Resumed)
}

// TestRecoveryListsCompletedRuns: a restarted server serves finished runs'
// summaries and reports from disk without re-executing them.
func TestRecoveryListsCompletedRuns(t *testing.T) {
	data := t.TempDir()
	srv := startTestServer(t, data)
	r, err := srv.submit(runSpec{Width: 2, Frames: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, r, runDone, 2*time.Minute)
	want := r.status()

	srv2, err := newServer(data, obs.New())
	if err != nil {
		t.Fatal(err)
	}
	if got := srv2.recoveredCount(); got != 0 {
		t.Fatalf("completed run re-enqueued (%d in queue)", got)
	}
	r2 := srv2.get(r.id)
	if r2 == nil {
		t.Fatal("restarted server forgot the completed run")
	}
	st := r2.status()
	if st.State != runDone || st.ClassDigest != want.ClassDigest || st.Summary == nil {
		t.Fatalf("recovered status %+v, want %+v", st, want)
	}
	// A fresh submission picks a fresh id, not a recycled one.
	r3, err := srv2.submit(runSpec{Width: 2, Frames: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r3.id == r.id {
		t.Fatalf("run id %s recycled", r3.id)
	}
	if r3.finishQueuedForTest() {
		t.Log("drained") // keep executor-less server tidy; nothing to assert
	}
}

// finishQueuedForTest cancels a queued run so a test server without an
// executor doesn't leak it; reports whether it was queued.
func (r *run) finishQueuedForTest() bool {
	if r.state() != runQueued {
		return false
	}
	r.finish(runCanceled, nil, true)
	return true
}

// TestRecoveryAcceptsRetiredSpecFields: run.json files written before the
// shard and replay knobs were retired carry their keys. Recovery must still
// load such a run, re-enqueue it and finish it.
func TestRecoveryAcceptsRetiredSpecFields(t *testing.T) {
	data := t.TempDir()
	dir := filepath.Join(data, "runs", "run-000007")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	info := `{"id":"run-000007","state":"running","spec":{"width":2,"frames":1,` +
		`"shards":3,"scenario_shards":2,"no_sched":true,"no_replay":false}}`
	if err := os.WriteFile(filepath.Join(dir, "run.json"), []byte(info), 0o644); err != nil {
		t.Fatal(err)
	}
	srv := startTestServer(t, data)
	r := srv.get("run-000007")
	if r == nil {
		t.Fatal("recovery dropped the run")
	}
	waitState(t, r, runDone, 2*time.Minute)
}

// FuzzDecodeSpec feeds arbitrary request bodies to the run-spec decoder, on
// top of the seed corpus in testdata/fuzz/FuzzDecodeSpec. Decoding must fail
// or return a spec that normalizes to itself and survives a round trip
// through its own JSON encoding; it must never panic.
func FuzzDecodeSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		spec, err := decodeSpec(bytes.NewReader(body))
		if err != nil {
			return
		}
		again := spec
		if err := again.normalize(); err != nil || again != spec {
			t.Fatalf("accepted spec %+v re-normalizes to %+v (err %v)", spec, again, err)
		}
		enc, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		back, err := decodeSpec(bytes.NewReader(enc))
		if err != nil || back != spec {
			t.Fatalf("spec %+v encodes as %s, which decodes to %+v (err %v)", spec, enc, back, err)
		}
	})
}
