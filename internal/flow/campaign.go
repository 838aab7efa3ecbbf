package flow

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"olfui/internal/atpg"
	"olfui/internal/fault"
	"olfui/internal/journal"
	"olfui/internal/netlist"
	"olfui/internal/obs"
	"olfui/internal/sched"
)

// Channel names the evidence domain a provider's deltas merge into. The two
// domains are kept apart because their claims are about different machines:
// full-scan verdicts are proven at full controllability and observability,
// mission verdicts on a restricted mission model. A fault that is Detected
// full-scan yet Untestable in mission mode is the paper's headline category,
// not a conflict — whereas Detected-vs-Untestable inside one channel is a
// hard error (fault.ConflictError).
type Channel uint8

// Evidence channels.
const (
	// ChannelFullScan carries verdicts proven on the original netlist at
	// full-scan controllability and observability.
	ChannelFullScan Channel = iota
	// ChannelMission carries mission-mode evidence: Untestable proofs from
	// constrained-scenario ATPG and Detected verdicts from graded mission
	// stimuli. A conflict here means a scenario transform was unsound or a
	// stimulus violated the mission model it was graded against.
	ChannelMission
	channelCount
)

// String implements fmt.Stringer.
func (c Channel) String() string {
	switch c {
	case ChannelFullScan:
		return "full-scan"
	case ChannelMission:
		return "mission"
	}
	return fmt.Sprintf("Channel(%d)", uint8(c))
}

// Env hands a provider the campaign's shared inputs.
type Env struct {
	N        *netlist.Netlist
	Universe *fault.Universe
	// ATPG configures the provider's engines. Pool arrives pre-filled with
	// the campaign's shared sched.Pool, which caps how many searches run at
	// once across all providers; each GenerateAll run searches one class at
	// a time. ObsPoints, Classes, Sites and Replay arrive nil — providers
	// select their own observation points, ordered class list, injection
	// site map and replayed test set. Metrics is pre-filled with the
	// campaign registry.
	ATPG atpg.Options
	// Metrics is the campaign telemetry registry (nil when the campaign runs
	// uninstrumented; all recording methods no-op on nil).
	Metrics *obs.Registry
	// Span is this provider's wall-clock span. Providers may hang child
	// spans off it (the sweep adds one per depth); the campaign ends it when
	// Run returns.
	Span *obs.Span
}

// EmitFn delivers one delta into the campaign merge. A non-nil return (a
// lattice conflict or protocol violation) is fatal: the campaign is being
// cancelled and the provider should return promptly.
type EmitFn func(fault.Delta) error

// Provider is one pluggable evidence source. Run streams ordered deltas
// about Env.Universe into emit — partial evidence as it is proven, not one
// terminal batch — and returns once its stream is complete or ctx is
// cancelled. Deltas must use the provider's Name as their Source, or
// "Name@suffix" for sub-streams (the sweep emits one source per depth,
// "sweep:<name>@k=<n>") — journal resume attributes sources to providers by
// this contract — with each source's Seq counting from 0, and must only
// strengthen statuses in the evidence lattice.
type Provider interface {
	Name() string
	Channel() Channel
	Run(ctx context.Context, env Env, emit EmitFn) error
}

// releaser is implemented by a provider that other providers of the same
// campaign wait on: the full-scan baseline, whose tests warm-start the
// scenarios. The campaign calls release once the provider can hand over
// nothing more — after its Run returns, or after the journal let it skip —
// so no provider waits on one that was restored, failed or was cancelled.
type releaser interface {
	release()
}

// Event is one per-provider progress notification, delivered serially from
// the campaign's merge path.
type Event struct {
	Provider string
	Channel  Channel
	// Source is the merged delta's source stream. It usually equals Provider,
	// but providers may run several sub-streams (the sweep emits one source
	// per depth, "sweep:<name>@k=<n>"); Seq is monotone per Source, counting
	// 0,1,2,… within each stream, NOT per provider. Terminal events carry the
	// provider name.
	Source string
	// Time is when the delta committed to the merge (stamped under the merge
	// lock, so Time is non-decreasing across the events a Progress callback
	// observes). Terminal events stamp provider completion.
	Time time.Time
	// Seq and Faults describe the merged delta (Faults counts its evidence
	// entries). For the terminal event of a provider, Done is true, Seq is
	// the number of deltas merged from it, and Err is its failure, if any.
	Seq    int
	Faults int
	Done   bool
	Err    error
}

// ErrString renders the event's error, or "" when there is none — the form
// progress output and the wire encoding carry, so a provider failure is
// never dropped for being unserializable.
func (e Event) ErrString() string {
	if e.Err == nil {
		return ""
	}
	return e.Err.Error()
}

// CampaignOptions configures a campaign run.
type CampaignOptions struct {
	// ATPG is the engine configuration template. The options a campaign
	// owns must be left nil: providers select observation, classes, site
	// maps, annotations, graders and replayed test sets per netlist, and the
	// campaign installs its own progress callback, registry and worker
	// pool.
	ATPG atpg.Options
	// Workers is the TOTAL campaign worker budget: the size of the one
	// sched.Pool that caps the searches in flight across every provider.
	// Each ATPG provider searches one class at a time, so a budget above
	// the number of ATPG providers leaves slots unused, and below it the
	// providers take turns. The budget changes no verdict, test or delta,
	// only how many providers search at once. 0 means runtime.NumCPU().
	Workers int
	// Serial runs providers one at a time in Add order (deterministic
	// profiling; RunCampaign uses it for Options.Serial).
	Serial bool
	// Progress, when non-nil, observes every merged delta and provider
	// completion. It is called with the merge lock held: keep it fast and
	// do not call back into the campaign.
	Progress func(Event)
	// Metrics, when non-nil, receives campaign telemetry: a "campaign" root
	// span with one "provider:<name>" child per provider, the flow.* counters
	// (deltas, delta_entries, conflicts) and the flow.merge_wait_ns histogram,
	// plus everything the engines record (it is threaded into every
	// provider's atpg.Options — which is why ATPG.Metrics must arrive nil).
	Metrics *obs.Registry
	// Journal, when non-nil, makes the run durable: every committed delta is
	// written ahead to it, provider completions append result + done
	// records, and — when the journal was opened over a previous
	// interrupted run of the SAME campaign (identical fingerprint) — Run
	// restores the merged evidence, skips providers the journal marks done,
	// and re-executes only unfinished ones. A Journal drives one Run; open
	// a fresh one (or reopen the directory) per run.
	Journal *journal.Journal
}

// Campaign accumulates streaming fault evidence from a set of providers
// into per-channel lattice merges. Build one with NewCampaign, Add
// providers, then Run it.
type Campaign struct {
	n         *netlist.Netlist
	u         *fault.Universe
	opts      CampaignOptions
	providers []Provider
	names     map[string]bool
	resumed   []string
}

// NewCampaign prepares an empty campaign over n's fault universe u.
func NewCampaign(n *netlist.Netlist, u *fault.Universe, opts CampaignOptions) *Campaign {
	return &Campaign{n: n, u: u, opts: opts, names: map[string]bool{}}
}

// Add registers providers. Names must be unique and non-empty.
func (c *Campaign) Add(ps ...Provider) error {
	for _, p := range ps {
		name := p.Name()
		if name == "" {
			return fmt.Errorf("flow: provider with empty name")
		}
		if c.names[name] {
			return fmt.Errorf("flow: duplicate provider %q", name)
		}
		if p.Channel() >= channelCount {
			return fmt.Errorf("flow: provider %q: unknown channel %v", name, p.Channel())
		}
		c.names[name] = true
		c.providers = append(c.providers, p)
	}
	return nil
}

// Resumed returns the names of the providers the last Run skipped because
// the journal proved them complete, in the order they were skipped.
func (c *Campaign) Resumed() []string { return c.resumed }

// EvidenceSet is the merged outcome of a campaign run: one accumulator per
// evidence channel.
type EvidenceSet struct {
	FullScan *fault.Accumulator
	Mission  *fault.Accumulator
}

// channel returns the accumulator backing ch.
func (e *EvidenceSet) channel(ch Channel) *fault.Accumulator {
	if ch == ChannelFullScan {
		return e.FullScan
	}
	return e.Mission
}

// Run executes every provider and merges their delta streams. It returns
// the merged evidence once all providers complete, or the first fatal error:
// a provider failure, a lattice conflict (fault.ConflictError), a delta
// protocol violation, or ctx's error. On any failure the remaining
// providers are cancelled and Run does not return until every provider
// goroutine has exited — a cancelled campaign leaks nothing.
func (c *Campaign) Run(ctx context.Context) (*EvidenceSet, error) {
	if err := checkEngineOptions("CampaignOptions", c.opts.ATPG); err != nil {
		return nil, err
	}
	if len(c.providers) == 0 {
		return nil, fmt.Errorf("flow: campaign has no providers")
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	reg := c.opts.Metrics
	root := reg.Root("campaign")
	root.SetInt("providers", int64(len(c.providers)))
	defer root.End()
	var (
		mDeltas       = reg.Counter("flow.deltas")
		mDeltaEntries = reg.Counter("flow.delta_entries")
		mConflicts    = reg.Counter("flow.conflicts")
		hMergeWait    = reg.Histogram("flow.merge_wait_ns")
	)

	ev := &EvidenceSet{
		FullScan: fault.NewAccumulator(c.u),
		Mission:  fault.NewAccumulator(c.u),
	}
	c.resumed = nil
	// Journal recovery (no-op without a journal): restores accumulators,
	// marks finished providers skippable, and rotates the wal when an
	// unfinished provider's stream restarts.
	js, err := c.recover(ev)
	if err != nil {
		return nil, err
	}
	if js != nil {
		root.SetInt("resumed_providers", int64(len(js.skip)))
	}

	// The merge path: providers emit concurrently, the lock serializes
	// lattice application and progress reporting. The first fatal error
	// cancels everything still running.
	var (
		mu        sync.Mutex
		mergeErr  error
		mergeFrom = -1                            // provider index that caused mergeErr
		merged    = make([]int, len(c.providers)) // deltas merged per provider
	)
	fail := func(pi int, err error) error {
		if mergeErr == nil {
			mergeErr = err
			mergeFrom = pi
		}
		cancel()
		return mergeErr
	}
	emitFor := func(pi int) EmitFn {
		p := c.providers[pi]
		return func(d fault.Delta) error {
			lockStart := time.Now()
			mu.Lock()
			defer mu.Unlock()
			hMergeWait.ObserveSince(lockStart)
			if mergeErr != nil {
				return mergeErr
			}
			if err := ev.channel(p.Channel()).Apply(d); err != nil {
				var ce *fault.ConflictError
				if errors.As(err, &ce) {
					mConflicts.Inc()
				}
				return fail(pi, fmt.Errorf("flow: provider %q: %w", p.Name(), err))
			}
			merged[pi]++
			mDeltas.Inc()
			mDeltaEntries.Add(int64(len(d.FIDs)))
			if js != nil {
				// Write-ahead AFTER lattice acceptance: a rejected delta must
				// not be journaled, and a crash between acceptance and append
				// only forgets a delta whose provider is still incomplete —
				// resume re-executes it and the merge is idempotent.
				if err := js.j.AppendDelta(p.Channel().String(), p.Name(), d); err != nil {
					return fail(pi, fmt.Errorf("flow: journal: %w", err))
				}
			}
			if c.opts.Progress != nil {
				// Time is stamped under the merge lock so a Progress observer
				// sees non-decreasing commit times across all providers.
				c.opts.Progress(Event{
					Provider: p.Name(), Channel: p.Channel(),
					Source: d.Source, Time: time.Now(),
					Seq: d.Seq, Faults: len(d.FIDs),
				})
			}
			return nil
		}
	}

	// One pool for the whole campaign: however many providers overlap, at
	// most `total` searches hold a slot at once.
	total := c.total()
	pool := sched.NewPool(total, reg)
	runOne := func(pi int) {
		p := c.providers[pi]
		if r, ok := p.(releaser); ok {
			defer r.release()
		}
		if js != nil {
			if n, ok := js.skip[p.Name()]; ok {
				// The journal proves this provider finished in a previous
				// run: restore its journaled result instead of re-executing,
				// and report it as done. Its evidence is already merged (it
				// came in with the recovered accumulators).
				mu.Lock()
				defer mu.Unlock()
				span := root.Child("provider:" + p.Name())
				span.SetAttr("channel", p.Channel().String())
				span.SetAttr("resumed", "true")
				span.SetInt("deltas", int64(n))
				span.End()
				merged[pi] = n
				if rr, ok := p.(resultRecorder); ok {
					if rec := js.results[p.Name()]; rec != nil {
						if err := rr.restoreResult(c.u, rec); err != nil {
							fail(pi, fmt.Errorf("flow: provider %q: %w", p.Name(), err))
							return
						}
					}
				}
				c.resumed = append(c.resumed, p.Name())
				if c.opts.Progress != nil {
					c.opts.Progress(Event{
						Provider: p.Name(), Channel: p.Channel(),
						Source: p.Name(), Time: time.Now(),
						Seq: n, Done: true,
					})
				}
				return
			}
		}
		span := root.Child("provider:" + p.Name())
		span.SetAttr("channel", p.Channel().String())
		env := Env{N: c.n, Universe: c.u, ATPG: c.opts.ATPG, Metrics: reg, Span: span}
		env.ATPG.Metrics = reg
		env.ATPG.Pool = pool
		err := p.Run(ctx, env, emitFor(pi))
		mu.Lock()
		defer mu.Unlock()
		span.SetInt("deltas", int64(merged[pi]))
		if err != nil {
			span.SetAttr("err", err.Error())
		}
		span.End()
		// A provider error is benign only when it is the campaign winding
		// down: the provider surfaced ANOTHER provider's stored merge error
		// from emit, or returned the campaign context's error after
		// cancellation. The provider that caused the merge error keeps it
		// for its own terminal event, and a context error produced while
		// OUR context is still live (say, a provider-internal deadline) is
		// a genuine failure — swallowing it would silently drop the
		// provider's evidence.
		windingDown := err != nil &&
			((mergeErr != nil && errors.Is(err, mergeErr) && mergeFrom != pi) ||
				(ctx.Err() != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded))))
		if err != nil && !windingDown {
			fail(pi, fmt.Errorf("flow: provider %q: %w", p.Name(), err))
		}
		evErr := err
		if windingDown {
			// Don't attribute another provider's failure (or the caller's
			// cancellation) to this provider in its terminal event.
			evErr = context.Canceled
		}
		if js != nil && err == nil && mergeErr == nil {
			// Result record strictly before the done marker; after the done
			// marker is durable, resume skips this provider.
			if jerr := js.finish(p, merged[pi]); jerr != nil {
				fail(pi, fmt.Errorf("flow: provider %q: journal: %w", p.Name(), jerr))
				evErr = jerr
			}
		}
		if c.opts.Progress != nil {
			c.opts.Progress(Event{
				Provider: p.Name(), Channel: p.Channel(),
				Source: p.Name(), Time: time.Now(),
				Seq: merged[pi], Done: true, Err: evErr,
			})
		}
	}

	if c.opts.Serial {
		for pi := range c.providers {
			runOne(pi)
			if mergeErr != nil || ctx.Err() != nil {
				break
			}
		}
	} else {
		var wg sync.WaitGroup
		for pi := range c.providers {
			wg.Add(1)
			go func(pi int) {
				defer wg.Done()
				runOne(pi)
			}(pi)
		}
		wg.Wait()
	}

	if err := ctx.Err(); mergeErr == nil && err != nil {
		return nil, err
	}
	if mergeErr != nil {
		return nil, mergeErr
	}
	return ev, nil
}

// total resolves the campaign-wide worker budget: CampaignOptions.Workers,
// else NumCPU.
func (c *Campaign) total() int {
	if c.opts.Workers > 0 {
		return c.opts.Workers
	}
	return runtime.NumCPU()
}

// checkEngineOptions rejects the engine options a campaign owns, naming the
// caller's options type (typ) in the error. Providers select observation,
// classes, site maps, annotations, graders and replayed test sets per
// netlist — a scenario's clone differs from the original, so a
// campaign-level value would index the wrong netlist — and the campaign
// installs its own progress callback, registry and worker pool, which would
// silently overwrite a caller-set one.
func checkEngineOptions(typ string, o atpg.Options) error {
	for _, f := range []struct {
		name string
		set  bool
		fix  string
	}{
		{"ObsPoints", o.ObsPoints != nil, "providers select observation"},
		{"Classes", o.Classes != nil, "providers select classes"},
		{"Sites", o.Sites != nil, "providers derive their own site maps"},
		{"Annotations", o.Annotations != nil, "providers annotate their own netlists"},
		{"Grader", o.Grader != nil, "providers build their own graders"},
		{"Replay", o.Replay != nil, "scenario providers replay the baseline's tests"},
		{"Progress", o.Progress != nil, "use " + typ + ".Progress for campaign events"},
		{"Metrics", o.Metrics != nil, "use " + typ + ".Metrics for campaign telemetry"},
		{"Pool", o.Pool != nil, "use " + typ + ".Workers for the campaign budget"},
	} {
		if f.set {
			return fmt.Errorf("flow: %s.ATPG.%s must be unset; %s", typ, f.name, f.fix)
		}
	}
	return nil
}
