package flow

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"olfui/internal/atpg"
	"olfui/internal/fault"
	"olfui/internal/journal"
	"olfui/internal/wire"
)

// This file wires the campaign core to the durable journal: every committed
// delta is teed into the journal write-ahead log (after the lattice accepts
// it, and without a sync — losing the tail of un-fsynced deltas is free,
// because the provider that emitted them is necessarily incomplete and
// re-executes on resume, re-announcing evidence the idempotent merge
// absorbs), provider completions append result + done records (the done
// marker's sync commits the provider), and recovery replays journal state
// into the per-channel accumulators so a resumed campaign skips finished
// providers and pays only for unfinished work.
//
// Resume semantics for an interrupted provider: its merged evidence is kept
// (monotone lattice — re-proving can only re-announce), but its per-source
// sequence state is reset so the re-run's fresh stream, restarting at seq 0,
// is accepted as new evidence rather than rejected as a replay. Recovery
// compacts only when it resets a source, rotating the wal, so no single wal
// ever holds a source restarting its numbering — which keeps wal replay
// strictly monotone per source. A journal whose recovered sources all belong
// to finished providers resumes without writing: the providers that re-run
// have no stream in the wal to restart.

// Wire converts the event to its serializable form: the channel by name and
// the error flattened through ErrString, so provider failures survive
// encoding instead of being dropped as unserializable.
func (e Event) Wire() *wire.Event {
	return &wire.Event{
		Provider: e.Provider,
		Channel:  e.Channel.String(),
		Source:   e.Source,
		Time:     e.Time,
		Seq:      e.Seq,
		Faults:   e.Faults,
		Done:     e.Done,
		Err:      e.ErrString(),
	}
}

// channelFromString inverts Channel.String.
func channelFromString(s string) (Channel, bool) {
	switch s {
	case ChannelFullScan.String():
		return ChannelFullScan, true
	case ChannelMission.String():
		return ChannelMission, true
	}
	return 0, false
}

// resultRecorder is implemented by providers whose terminal result must
// survive a resume: the record is journaled before the provider's done
// marker, and a resumed campaign restores it instead of re-running the
// provider. Providers without results worth persisting (the baseline's
// outcome is reconstructible from the full-scan accumulator, the pattern
// provider's detections from the mission channel) simply don't implement it.
type resultRecorder interface {
	// resultRecord serializes the provider's result after a successful Run;
	// nil (with nil error) means nothing to persist.
	resultRecord() (*journal.ProviderResult, error)
	// restoreResult rebuilds the provider's result over the original
	// universe from a journaled record. Restored results carry
	// ScenarioResult.Restored and only the report-bearing fields.
	restoreResult(u *fault.Universe, rec *journal.ProviderResult) error
}

// journalState is a campaign run's journaling context: the open journal, the
// campaign fingerprint, and what recovery found of earlier runs — the
// providers this run must not re-execute (skip) and their journaled results.
type journalState struct {
	j       *journal.Journal
	meta    json.RawMessage
	skip    map[string]int // recovered at start: provider → merged count
	results map[string]*journal.ProviderResult
}

// fingerprint identifies the campaign a journal belongs to: design, universe
// size, and the full provider roster. Resume refuses a journal whose
// fingerprint differs — replaying evidence into a differently-shaped
// campaign would corrupt it silently.
func (c *Campaign) fingerprint() json.RawMessage {
	type provMeta struct {
		Name    string `json:"name"`
		Channel string `json:"channel"`
	}
	ps := make([]provMeta, len(c.providers))
	for i, p := range c.providers {
		ps[i] = provMeta{Name: p.Name(), Channel: p.Channel().String()}
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].Name < ps[j].Name })
	// The byte layout is part of the resume contract: a journal resumes only
	// while its recorded fingerprint matches byte for byte, so changing the
	// layout orphans every resumable journal.
	raw, err := json.Marshal(struct {
		Design    string     `json:"design"`
		Faults    int        `json:"faults"`
		Providers []provMeta `json:"providers"`
	}{c.n.Name, c.u.NumFaults(), ps})
	if err != nil {
		panic(err) // marshal of plain strings and ints cannot fail
	}
	return raw
}

// ownedBy reports whether delta source src belongs to provider name under
// the source-naming contract: a provider's sources are its Name exactly, or
// "Name@suffix" for sub-streams (the sweep's per-depth sources).
func ownedBy(src, name string) bool {
	return src == name || strings.HasPrefix(src, name+"@")
}

// recover initializes journaling for a campaign run. With no journal
// configured it returns (nil, nil). On a fresh journal it records the
// campaign fingerprint. On a journal with recovered state it verifies the
// fingerprint, restores the per-channel accumulators, replays the wal's
// delta suffix, marks finished providers skippable and resets the sequence
// state of every source whose provider did not finish. It compacts only when
// it reset a source, so the restarted stream begins in a fresh wal; a
// journal whose sources all belong to finished providers is left untouched.
func (c *Campaign) recover(ev *EvidenceSet) (*journalState, error) {
	j := c.opts.Journal
	if j == nil {
		return nil, nil
	}
	js := &journalState{
		j:       j,
		meta:    c.fingerprint(),
		skip:    map[string]int{},
		results: map[string]*journal.ProviderResult{},
	}
	st := j.Recovered()
	if st == nil {
		if err := j.SetMeta(js.meta); err != nil {
			return nil, fmt.Errorf("flow: %w", err)
		}
		return js, nil
	}

	if len(st.Meta) == 0 {
		return nil, fmt.Errorf("flow: journal %s holds evidence but no campaign fingerprint", j.Dir())
	}
	if !bytes.Equal(st.Meta, js.meta) {
		return nil, fmt.Errorf("flow: journal %s belongs to a different campaign:\n  journal: %s\n  this run: %s",
			j.Dir(), st.Meta, js.meta)
	}

	// Restore the compacted accumulators, collecting every source with
	// sequence state so incomplete ones can be reset below.
	sources := map[Channel]map[string]bool{ChannelFullScan: {}, ChannelMission: {}}
	for name, snap := range st.Channels {
		ch, ok := channelFromString(name)
		if !ok {
			return nil, fmt.Errorf("flow: journal snapshot names unknown channel %q", name)
		}
		acc, err := fault.RestoreAccumulator(c.u, snap)
		if err != nil {
			return nil, fmt.Errorf("flow: journal channel %q: %w", name, err)
		}
		if ch == ChannelFullScan {
			ev.FullScan = acc
		} else {
			ev.Mission = acc
		}
		for src := range snap.NextSeq {
			sources[ch][src] = true
		}
	}
	// Replay the wal suffix in commit order. Replay (not Apply): a delta the
	// snapshot already covers — possible only if a crash interleaved just so
	// — is skipped as a duplicate instead of failing the resume.
	for _, d := range st.Deltas {
		ch, ok := channelFromString(d.Channel)
		if !ok {
			return nil, fmt.Errorf("flow: journal delta names unknown channel %q", d.Channel)
		}
		if _, err := ev.channel(ch).Replay(d.D); err != nil {
			return nil, fmt.Errorf("flow: journal replay, provider %q: %w", d.Provider, err)
		}
		sources[ch][d.D.Source] = true
	}
	js.skip, js.results = st.Done, st.Results

	// Reset the sequence state of every source not owned by a finished
	// provider: the owner re-executes and its fresh stream restarts at seq
	// 0. Finished providers keep their state, so a re-delivered copy of
	// their stream is rejected as the already-applied prefix.
	reset := false
	for ch, srcs := range sources {
		for src := range srcs {
			finished := false
			for name := range js.skip {
				if ownedBy(src, name) {
					finished = true
					break
				}
			}
			if !finished {
				ev.channel(ch).ResetSource(src)
				reset = true
			}
		}
	}

	// Rotate the wal so the re-executed sources' restarted numbering never
	// shares a wal with their old stream. No provider runs yet, so the
	// snapshot holds exactly the recovered state.
	if reset {
		err := j.Compact(&journal.CompactState{
			Meta: js.meta,
			Channels: map[string]*fault.AccumulatorSnapshot{
				ChannelFullScan.String(): ev.FullScan.Snapshot(),
				ChannelMission.String():  ev.Mission.Snapshot(),
			},
			Done:    js.skip,
			Results: js.results,
		})
		if err != nil {
			return nil, err
		}
	}
	return js, nil
}

// finish journals a provider's completion: its result record (when it has
// one) strictly before its done marker, so a journal never marks a provider
// skippable without the state a resumed Report needs from it.
func (js *journalState) finish(p Provider, merged int) error {
	if rr, ok := p.(resultRecorder); ok {
		rec, err := rr.resultRecord()
		if err != nil {
			return err
		}
		if rec != nil {
			if err := js.j.AppendResult(rec); err != nil {
				return err
			}
		}
	}
	return js.j.AppendDone(p.Name(), merged)
}

// --- provider result records ---

// scenarioRecord is the journaled form of a scenario (or sweep) result: the
// projected status map over the original universe — everything the
// classification and summary need — plus the sweep's per-depth table when
// the provider was a sweep.
type scenarioRecord struct {
	Projected []byte       `json:"projected"`
	Sweep     *SweepResult `json:"sweep,omitempty"`
}

// recordKind is the journaled result kind: "sweep" for a swept scenario,
// "scenario" for a one-shot one.
func (p *ScenarioProvider) recordKind() string {
	if p.MaxFrames > 0 {
		return "sweep"
	}
	return "scenario"
}

func (p *ScenarioProvider) resultRecord() (*journal.ProviderResult, error) {
	data, err := json.Marshal(scenarioRecord{
		Projected: p.Result.Projected.Bytes(),
		Sweep:     p.Result.Sweep,
	})
	if err != nil {
		return nil, err
	}
	return &journal.ProviderResult{Provider: p.Name(), Kind: p.recordKind(), Data: data}, nil
}

func (p *ScenarioProvider) restoreResult(u *fault.Universe, rec *journal.ProviderResult) error {
	if want := p.recordKind(); rec.Kind != want {
		return fmt.Errorf("journaled result has kind %q, want %q", rec.Kind, want)
	}
	var sr scenarioRecord
	if err := json.Unmarshal(rec.Data, &sr); err != nil {
		return fmt.Errorf("journaled result: %w", err)
	}
	projected, err := fault.RestoreStatusMap(u, sr.Projected)
	if err != nil {
		return fmt.Errorf("journaled result: %w", err)
	}
	p.Result = &ScenarioResult{
		Scenario:  p.Scenario,
		Projected: projected,
		Outcome:   &atpg.Outcome{},
		Sweep:     sr.Sweep,
		Restored:  true,
	}
	return nil
}

var _ resultRecorder = (*ScenarioProvider)(nil)
