package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"olfui/internal/bench"
	"olfui/internal/fault"
	"olfui/internal/flow"
	"olfui/internal/journal"
	"olfui/internal/obs"
	"olfui/internal/wire"
)

// runSpec is a submitted campaign's parameters: the benchmark design knobs
// plus server-side pacing. A zero width takes the default 8 and a zero
// frames the default 2. The embedded bench.Spec's JSON fields come first,
// as width, frames, max_frames and workers.
type runSpec struct {
	bench.Spec
	// Serial runs the campaign's providers one at a time instead of
	// concurrently — slower, but interrupting the server then leaves a clean
	// prefix of completed providers for resume to skip.
	Serial bool `json:"serial"`
	// DeltaDelayMS throttles the campaign by sleeping this long after every
	// merged delta. It exists for tests and CI smokes that must kill the
	// server mid-campaign at a predictable point; production runs leave it 0.
	DeltaDelayMS int `json:"delta_delay_ms"`
}

// maxSpecBytes bounds a submitted run spec's body.
const maxSpecBytes = 1 << 20

// decodeSpec reads a submitted run spec: exactly one JSON object, then
// nothing but whitespace, normalized. Unknown fields are refused, and so is
// anything after the object (a second object, trailing garbage), so a typo
// or a retired knob cannot silently run a different campaign. Recovery's
// readJSON stays lenient: run.json files written by earlier versions carry
// retired keys.
func decodeSpec(r io.Reader) (runSpec, error) {
	var spec runSpec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return runSpec{}, err
	}
	if _, err := dec.Token(); err != io.EOF {
		if err == nil {
			err = errors.New("a second JSON value")
		}
		return runSpec{}, fmt.Errorf("content after the spec: %w", err)
	}
	if err := spec.normalize(); err != nil {
		return runSpec{}, err
	}
	return spec, nil
}

func (sp *runSpec) normalize() error {
	if sp.Width == 0 {
		sp.Width = 8
	}
	if sp.Frames == 0 {
		sp.Frames = 2
	}
	if err := sp.Spec.Validate(); err != nil {
		return err
	}
	if sp.DeltaDelayMS < 0 || sp.DeltaDelayMS > 60_000 {
		return fmt.Errorf("delta_delay_ms must be in [0,60000], got %d", sp.DeltaDelayMS)
	}
	return nil
}

type runState string

const (
	runQueued   runState = "queued"
	runRunning  runState = "running"
	runDone     runState = "done"
	runFailed   runState = "failed"
	runCanceled runState = "canceled"
)

// runInfo is the durable identity of a run — persisted as run.json in the
// run's directory so a restarted server knows what was in flight. A run
// whose persisted state is "queued" or "running" is incomplete: the server
// died (or was killed) before finishing it, and recovery re-enqueues it; its
// journal carries whatever evidence the dead process committed.
type runInfo struct {
	ID    string   `json:"id"`
	Spec  runSpec  `json:"spec"`
	State runState `json:"state"`
	Error string   `json:"error,omitempty"`
}

// runSummary is the durable result of a completed run — persisted as
// summary.json next to run.json.
type runSummary struct {
	ID      string       `json:"id"`
	Summary flow.Summary `json:"summary"`
	// Resumed names the providers this run restored from its journal
	// instead of re-executing; non-empty exactly when the run completed a
	// campaign an earlier server process started.
	Resumed []string `json:"resumed,omitempty"`
	// ClassDigest is the sha256 of the per-fault classification array — a
	// compact fingerprint for comparing a resumed run against an
	// uninterrupted reference.
	ClassDigest string `json:"class_digest"`
}

// run is a campaign run the server tracks: durable info plus the in-process
// progress hub and cancellation handle.
type run struct {
	id  string
	dir string

	mu      sync.Mutex
	info    runInfo
	summary *runSummary
	cancel  context.CancelFunc

	// providersDone counts this process's provider-completion events —
	// including skipped (resumed) providers' terminal events. Status
	// surfaces it so clients (and the CI kill-resume smoke) can tell how
	// far a running campaign has progressed.
	providersDone atomic.Int64

	hub *hub
}

func (r *run) state() runState {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.info.State
}

// setState updates the in-memory state and persists run.json. persist=false
// is the shutdown path: the server is dying and wants the disk to keep
// saying "running" so the next process resumes the run.
func (r *run) setState(st runState, errMsg string, persist bool) error {
	r.mu.Lock()
	r.info.State = st
	r.info.Error = errMsg
	info := r.info
	r.mu.Unlock()
	if !persist {
		return nil
	}
	return writeJSONAtomic(filepath.Join(r.dir, "run.json"), info)
}

// status is the wire shape of GET /runs/{id}.
type status struct {
	runInfo
	ProvidersDone int64         `json:"providers_done"`
	Summary       *flow.Summary `json:"summary,omitempty"`
	Resumed       []string      `json:"resumed,omitempty"`
	ClassDigest   string        `json:"class_digest,omitempty"`
}

func (r *run) status() status {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := status{runInfo: r.info, ProvidersDone: r.providersDone.Load()}
	if r.summary != nil {
		s := r.summary.Summary
		st.Summary = &s
		st.Resumed = r.summary.Resumed
		st.ClassDigest = r.summary.ClassDigest
	}
	return st
}

// server queues campaign runs over the benchmark design, executes them one
// at a time, journals every run so a killed server resumes where it died,
// and streams progress to any number of SSE subscribers.
type server struct {
	data string // state root; runs live under data/runs/<id>/
	reg  *obs.Registry

	mu     sync.Mutex
	runs   map[string]*run
	order  []string // submission order, for GET /runs and recovery
	nextID int

	queue chan *run
	wg    sync.WaitGroup // executor goroutine
}

// newServer opens (or creates) the state directory and recovers every run a
// previous process recorded: completed runs are listed with their persisted
// summaries, incomplete ones are re-enqueued — their journals make the
// re-execution incremental.
func newServer(data string, reg *obs.Registry) (*server, error) {
	s := &server{
		data:  data,
		reg:   reg,
		runs:  map[string]*run{},
		queue: make(chan *run, 1024),
	}
	runsDir := filepath.Join(data, "runs")
	if err := os.MkdirAll(runsDir, 0o755); err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(runsDir)
	if err != nil {
		return nil, err
	}
	var recovered []*run
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join(runsDir, e.Name())
		var info runInfo
		err := readJSON(filepath.Join(dir, "run.json"), &info)
		if errors.Is(err, fs.ErrNotExist) {
			// A submission that died before its run.json was in place was
			// never acknowledged: there is no run to recover.
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("recover %s: %w", e.Name(), err)
		}
		r := &run{id: info.ID, dir: dir, info: info, hub: newHub()}
		var n int
		if _, err := fmt.Sscanf(info.ID, "run-%d", &n); err == nil && n >= s.nextID {
			s.nextID = n + 1
		}
		switch info.State {
		case runDone:
			var sum runSummary
			if err := readJSON(filepath.Join(dir, "summary.json"), &sum); err != nil {
				return nil, fmt.Errorf("recover %s: %w", info.ID, err)
			}
			r.summary = &sum
			r.hub.close()
		case runFailed, runCanceled:
			r.hub.close()
		default: // queued or running: the previous process died mid-run
			r.info.State = runQueued
			recovered = append(recovered, r)
		}
		s.runs[info.ID] = r
		s.order = append(s.order, info.ID)
	}
	sort.Strings(s.order)
	sort.Slice(recovered, func(i, j int) bool { return recovered[i].id < recovered[j].id })
	for _, r := range recovered {
		s.queue <- r
	}
	return s, nil
}

// recoveredCount reports how many incomplete runs startup re-enqueued.
func (s *server) recoveredCount() int { return len(s.queue) }

// start launches the executor; it exits when ctx is canceled, abandoning the
// in-flight run in a resumable state.
func (s *server) start(ctx context.Context) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			select {
			case <-ctx.Done():
				return
			case r := <-s.queue:
				s.execute(ctx, r)
			}
		}
	}()
}

// wait blocks until the executor has exited (after its ctx is canceled).
func (s *server) wait() { s.wg.Wait() }

// execute runs one campaign to completion (or cancellation).
func (s *server) execute(ctx context.Context, r *run) {
	if r.state() != runQueued { // canceled while queued
		return
	}
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()
	r.mu.Lock()
	r.cancel = cancel
	r.mu.Unlock()
	if err := r.setState(runRunning, "", true); err != nil {
		r.finish(runFailed, err, true)
		return
	}

	rep, err := s.runCampaign(rctx, r)
	switch {
	case err == nil:
		if perr := r.persistResult(rep); perr != nil {
			r.finish(runFailed, perr, true)
			return
		}
		r.finish(runDone, nil, true)
	case ctx.Err() != nil:
		// Server shutdown: leave run.json saying "running" so the next
		// process re-enqueues and resumes from the journal. The hub still
		// closes so attached SSE clients see the stream end.
		r.finish(runRunning, nil, false)
	case errors.Is(err, context.Canceled):
		r.finish(runCanceled, nil, true)
	default:
		r.finish(runFailed, err, true)
	}
}

// finish records a run's terminal state and ends its event stream.
func (r *run) finish(st runState, err error, persist bool) {
	msg := ""
	if err != nil {
		msg = err.Error()
	}
	if perr := r.setState(st, msg, persist); perr != nil && msg == "" {
		r.mu.Lock()
		r.info.Error = perr.Error()
		r.mu.Unlock()
	}
	r.hub.close()
}

// runCampaign executes the run's campaign over the benchmark design with its
// journal open, streaming every progress event to the run's hub as an
// encoded wire message.
func (s *server) runCampaign(ctx context.Context, r *run) (*flow.Report, error) {
	r.mu.Lock()
	spec := r.info.Spec
	r.mu.Unlock()

	j, err := journal.Open(filepath.Join(r.dir, "journal"), journal.Options{})
	if err != nil {
		return nil, err
	}
	defer j.Close()

	n := bench.Build(spec.Width)
	if err := n.Validate(); err != nil {
		return nil, err
	}
	delay := time.Duration(spec.DeltaDelayMS) * time.Millisecond
	opts := flow.Options{
		Workers:   spec.Workers,
		MaxFrames: spec.MaxFrames,
		Serial:    spec.Serial,
		Metrics:   s.reg,
		Journal:   j,
		Progress: func(e flow.Event) {
			if e.Done && e.Err == nil {
				r.providersDone.Add(1)
			}
			if data, err := wire.Encode(wire.NewEvent(e.Wire())); err == nil {
				r.hub.publish(data)
			}
			if delay > 0 && !e.Done {
				// Pacing runs under the merge lock on purpose: it slows the
				// whole campaign so a test can kill the server mid-run.
				time.Sleep(delay)
			}
		},
	}
	return flow.RunCampaign(ctx, n, fault.NewUniverse(n), bench.Scenarios(spec.Frames), opts)
}

// persistResult writes the completed run's durable artifacts: report.txt
// (the rendered report) and summary.json (summary, resumed providers, and
// the classification digest).
func (r *run) persistResult(rep *flow.Report) error {
	sum := &runSummary{
		ID:          r.id,
		Summary:     rep.Summarize(),
		Resumed:     rep.Resumed,
		ClassDigest: rep.ClassDigest(),
	}
	if err := os.WriteFile(filepath.Join(r.dir, "report.txt"), []byte(rep.String()), 0o644); err != nil {
		return err
	}
	if err := writeJSONAtomic(filepath.Join(r.dir, "summary.json"), sum); err != nil {
		return err
	}
	r.mu.Lock()
	r.summary = sum
	r.mu.Unlock()
	return nil
}

// submit persists a new run, registers it and enqueues it. The run is
// registered only once its run.json is in place, so a submission that fails
// to persist (a full disk) is neither listed nor left behind for recovery.
func (s *server) submit(spec runSpec) (*run, error) {
	s.mu.Lock()
	id := fmt.Sprintf("run-%06d", s.nextID)
	s.nextID++
	s.mu.Unlock()
	dir := filepath.Join(s.data, "runs", id)
	r := &run{
		id:   id,
		dir:  dir,
		info: runInfo{ID: id, Spec: spec, State: runQueued},
		hub:  newHub(),
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := writeJSONAtomic(filepath.Join(dir, "run.json"), r.info); err != nil {
		os.RemoveAll(dir) //nolint:errcheck // recovery skips a directory without run.json
		return nil, err
	}
	s.mu.Lock()
	s.runs[id] = r
	s.order = append(s.order, id)
	s.mu.Unlock()
	select {
	case s.queue <- r:
		return r, nil
	default:
		r.finish(runFailed, fmt.Errorf("run queue full"), true)
		return nil, fmt.Errorf("run queue full")
	}
}

func (s *server) get(id string) *run {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.runs[id]
}

// --- HTTP surface ---

func (s *server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /runs", s.handleSubmit)
	mux.HandleFunc("GET /runs", s.handleList)
	mux.HandleFunc("GET /runs/{id}", s.handleStatus)
	mux.HandleFunc("GET /runs/{id}/report", s.handleReport)
	mux.HandleFunc("GET /runs/{id}/events", s.handleEvents)
	mux.HandleFunc("POST /runs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client went away
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *server) handleSubmit(w http.ResponseWriter, req *http.Request) {
	spec, err := decodeSpec(http.MaxBytesReader(w, req.Body, maxSpecBytes))
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad run spec: %v", err)
		return
	}
	r, err := s.submit(spec)
	if err != nil {
		httpError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, r.status())
}

func (s *server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	sts := make([]status, 0, len(s.order))
	for _, id := range s.order {
		sts = append(sts, s.runs[id].status())
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"runs": sts})
}

func (s *server) handleStatus(w http.ResponseWriter, req *http.Request) {
	r := s.get(req.PathValue("id"))
	if r == nil {
		httpError(w, http.StatusNotFound, "no such run")
		return
	}
	writeJSON(w, http.StatusOK, r.status())
}

func (s *server) handleReport(w http.ResponseWriter, req *http.Request) {
	r := s.get(req.PathValue("id"))
	if r == nil {
		httpError(w, http.StatusNotFound, "no such run")
		return
	}
	if r.state() != runDone {
		httpError(w, http.StatusConflict, "run is %s; the report exists once it is done", r.state())
		return
	}
	data, err := os.ReadFile(filepath.Join(r.dir, "report.txt"))
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write(data) //nolint:errcheck // client went away
}

func (s *server) handleCancel(w http.ResponseWriter, req *http.Request) {
	r := s.get(req.PathValue("id"))
	if r == nil {
		httpError(w, http.StatusNotFound, "no such run")
		return
	}
	r.mu.Lock()
	st := r.info.State
	cancel := r.cancel
	r.mu.Unlock()
	switch st {
	case runQueued:
		r.finish(runCanceled, nil, true)
	case runRunning:
		if cancel != nil {
			cancel()
		}
	}
	writeJSON(w, http.StatusOK, r.status())
}

func (s *server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.reg.Snapshot())
}

// handleEvents streams the run's progress as server-sent events: one
// `data:` frame per wire-encoded campaign event, starting with a full
// replay of everything published so far, ending with an `end` event naming
// the run's terminal state. Any number of clients may attach at any time.
func (s *server) handleEvents(w http.ResponseWriter, req *http.Request) {
	r := s.get(req.PathValue("id"))
	if r == nil {
		httpError(w, http.StatusNotFound, "no such run")
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	replay, ch, unsubscribe := r.hub.subscribe()
	defer unsubscribe()
	for _, frame := range replay {
		fmt.Fprintf(w, "data: %s\n\n", frame)
	}
	fl.Flush()
	for {
		select {
		case <-req.Context().Done():
			return
		case frame, ok := <-ch:
			if !ok { // hub closed: the run reached a terminal state
				fmt.Fprintf(w, "event: end\ndata: {\"state\":%q}\n\n", r.state())
				fl.Flush()
				return
			}
			fmt.Fprintf(w, "data: %s\n\n", frame)
			fl.Flush()
		}
	}
}

// --- SSE hub ---

// maxHubBuffer bounds the replay buffer; past it, late subscribers miss the
// oldest frames (live frames still flow). Campaign event volume is chunked
// upstream (deltas batch ~256 verdicts), so real runs sit far below this.
const maxHubBuffer = 1 << 16

// hub fans one run's event frames out to any number of subscribers, keeping
// a replay buffer so a client attaching mid-run (or after completion) sees
// the whole stream.
type hub struct {
	mu     sync.Mutex
	buf    [][]byte
	subs   map[chan []byte]struct{}
	closed bool
}

func newHub() *hub {
	return &hub{subs: map[chan []byte]struct{}{}}
}

func (h *hub) publish(frame []byte) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	if len(h.buf) < maxHubBuffer {
		h.buf = append(h.buf, frame)
	}
	for ch := range h.subs {
		select {
		case ch <- frame:
		default:
			// Slow subscriber: close its channel so its handler returns and
			// the client reconnects into a fresh replay.
			close(ch)
			delete(h.subs, ch)
		}
	}
}

// subscribe returns the frames published so far plus a live channel. The
// channel is closed when the hub closes (run finished) or the subscriber
// falls too far behind. unsubscribe is idempotent and safe after close.
func (h *hub) subscribe() (replay [][]byte, ch chan []byte, unsubscribe func()) {
	h.mu.Lock()
	defer h.mu.Unlock()
	replay = h.buf[:len(h.buf):len(h.buf)]
	ch = make(chan []byte, 1024)
	if h.closed {
		close(ch)
		return replay, ch, func() {}
	}
	h.subs[ch] = struct{}{}
	return replay, ch, func() {
		h.mu.Lock()
		defer h.mu.Unlock()
		if _, live := h.subs[ch]; live {
			delete(h.subs, ch)
		}
	}
}

func (h *hub) close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	for ch := range h.subs {
		close(ch)
	}
	h.subs = map[chan []byte]struct{}{}
}

// --- persistence helpers ---

// writeJSONAtomic writes v as indented JSON via tmp+rename so readers (and
// crash recovery) never see a torn file.
func writeJSONAtomic(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}
