package flow

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"olfui/internal/constraint"
	"olfui/internal/fault"
	"olfui/internal/journal"
	"olfui/internal/logic"
	"olfui/internal/obs"
	"olfui/internal/testutil"
)

func resumeScenarios() []Scenario {
	return []Scenario{
		{Name: "online-obs", Observe: constraint.ObserveOutputs},
		{
			Name:       "tied-input",
			Transforms: []constraint.Transform{constraint.Tie{Net: "i0", Value: logic.Zero}},
			Observe:    constraint.ObserveOutputs,
		},
		{
			Name:       "reach-2",
			Transforms: []constraint.Transform{constraint.Unroll{Frames: 2}},
			Observe:    constraint.ObserveOutputsAndCaptures,
		},
	}
}

// requireNoAborts: report equivalence across kill/resume (like worker-count
// invariance) is only guaranteed absent aborts — Detected and Untestable are
// complete proofs, Aborted depends on search luck.
func requireNoAborts(t *testing.T, r *Report, label string) {
	t.Helper()
	if r.Baseline.Stats.Aborted != 0 {
		t.Fatalf("%s: baseline aborted %d classes; equivalence only holds absent aborts", label, r.Baseline.Stats.Aborted)
	}
	for _, sr := range r.Scenarios {
		if sr.Outcome.Stats.Aborted != 0 {
			t.Fatalf("%s: scenario %q aborted %d classes", label, sr.Scenario.Name, sr.Outcome.Stats.Aborted)
		}
		if sr.Sweep != nil {
			for _, d := range sr.Sweep.Depths {
				if d.Stats.Aborted != 0 {
					t.Fatalf("%s: scenario %q k=%d aborted %d classes",
						label, sr.Scenario.Name, d.Frames, d.Stats.Aborted)
				}
			}
		}
	}
}

// assertReportsEquivalent compares the deliverable surface of two reports:
// classification, merged baseline and mission statuses, projected scenario
// verdicts, and the summary. Engine stats and pattern sets legitimately
// differ between an uninterrupted run and a resumed one (a skipped
// provider's work counters died with the killed process).
func assertReportsEquivalent(t *testing.T, ref, got *Report, label string) {
	t.Helper()
	for id := range ref.Class {
		if ref.Class[id] != got.Class[id] {
			t.Fatalf("%s: fault %d classified %v, reference %v", label, id, got.Class[id], ref.Class[id])
		}
	}
	for id := 0; id < ref.Universe.NumFaults(); id++ {
		fid := fault.FID(id)
		if ref.Baseline.Status.Get(fid) != got.Baseline.Status.Get(fid) {
			t.Fatalf("%s: fault %d baseline %v, reference %v",
				label, id, got.Baseline.Status.Get(fid), ref.Baseline.Status.Get(fid))
		}
		if ref.Mission.Get(fid) != got.Mission.Get(fid) {
			t.Fatalf("%s: fault %d mission %v, reference %v",
				label, id, got.Mission.Get(fid), ref.Mission.Get(fid))
		}
	}
	for si := range ref.Scenarios {
		rp, gp := ref.Scenarios[si].Projected, got.Scenarios[si].Projected
		for id := 0; id < rp.Len(); id++ {
			if rp.Get(fault.FID(id)) != gp.Get(fault.FID(id)) {
				t.Fatalf("%s: scenario %q fault %d projected %v, reference %v",
					label, ref.Scenarios[si].Scenario.Name, id, gp.Get(fault.FID(id)), rp.Get(fault.FID(id)))
			}
		}
	}
	if rs, gs := ref.Summarize(), got.Summarize(); rs != gs {
		t.Fatalf("%s: summary %+v, reference %+v", label, gs, rs)
	}
}

// TestKillResumeEquivalence is the acceptance property: a campaign killed
// mid-run and resumed from its journal yields a Report identical (on the
// deliverable surface) to the same campaign run uninterrupted, and the
// resumed run re-executes only providers whose sources were incomplete at
// the kill point — verified via the journal's per-source appended-delta
// counts. Two kill points per seed: at a provider boundary (some providers
// durably done) and mid-stream (the killed provider's partial evidence is in
// the wal, so the resume restarts its stream and must rotate the wal). A
// killed process writes nothing more, so the kill also closes the journal:
// cancellation alone lets the provider in flight stream its remaining deltas
// and its done marker, and on these netlists, whose providers emit every
// delta after their search returns, turns the mid-stream kill into a
// provider boundary.
func TestKillResumeEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		nl := testutil.RandomNetlist(seed, testutil.RandOpts{Inputs: 4, Gates: 16, FFs: 2, Outputs: 2})
		scenarios := resumeScenarios()

		ref, err := RunCampaign(context.Background(), nl, fault.NewUniverse(nl), scenarios, Options{Serial: true})
		if err != nil {
			t.Fatalf("seed %d reference: %v", seed, err)
		}
		requireNoAborts(t, ref, "reference")

		kills := []struct {
			name string
			// kill the campaign once the predicate holds for an observed event
			trigger func(e Event, doneProviders, mergedDeltas int) bool
		}{
			{"provider-boundary", func(e Event, done, _ int) bool { return e.Done && done >= 2 }},
			{"mid-stream", func(e Event, _, merged int) bool { return !e.Done && merged >= 1 }},
		}
		for _, kill := range kills {
			dir := t.TempDir()

			// Interrupted run: cancel and close the journal at the kill point.
			j1, err := journal.Open(dir, journal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			doneProviders, mergedDeltas := 0, 0
			_, err = RunCampaign(ctx, nl, fault.NewUniverse(nl), scenarios, Options{
				Serial:  true,
				Journal: j1,
				Progress: func(e Event) {
					if e.Done && e.Err == nil {
						doneProviders++
					} else if !e.Done {
						mergedDeltas++
					}
					if kill.trigger(e, doneProviders, mergedDeltas) {
						cancel()
						j1.Close()
					}
				},
			})
			cancel()
			if err == nil {
				t.Fatalf("seed %d %s: campaign finished before the kill point", seed, kill.name)
			}
			if !errors.Is(err, context.Canceled) && !strings.Contains(err.Error(), "journal: closed") {
				t.Fatalf("seed %d %s: interrupted run failed with %v, want cancellation or the closed journal",
					seed, kill.name, err)
			}
			killedGen := manifestGen(t, dir)

			// Resumed run over the recovered journal.
			j2, err := journal.Open(dir, journal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if j2.Recovered() == nil {
				t.Fatalf("seed %d %s: interrupted run left no journal state", seed, kill.name)
			}
			res, err := RunCampaign(context.Background(), nl, fault.NewUniverse(nl), scenarios, Options{
				Serial:  true,
				Journal: j2,
			})
			if err != nil {
				t.Fatalf("seed %d %s resume: %v", seed, kill.name, err)
			}
			requireNoAborts(t, res, "resumed")

			// Providers the journal marked done were not re-executed: the
			// resumed process appended no deltas from their sources. The
			// incomplete remainder really re-ran and re-journaled.
			counts := j2.AppendedDeltas()
			for _, name := range res.Resumed {
				for src, n := range counts {
					if n > 0 && ownedBy(src, name) {
						t.Errorf("seed %d %s: resumed run appended %d deltas from %q of skipped provider %q",
							seed, kill.name, n, src, name)
					}
				}
			}
			total := 0
			for _, n := range counts {
				total += n
			}
			if total == 0 {
				t.Errorf("seed %d %s: resumed run re-executed nothing", seed, kill.name)
			}
			if kill.name == "provider-boundary" {
				if len(res.Resumed) != 2 {
					t.Errorf("seed %d: resumed %v, want the 2 providers done at the kill point", seed, res.Resumed)
				}
			}
			if kill.name == "mid-stream" {
				if gen := manifestGen(t, dir); gen <= killedGen {
					t.Errorf("seed %d: resuming a half-streamed provider left the journal at generation %d (killed at %d)",
						seed, gen, killedGen)
				}
			}
			for si, sr := range res.Scenarios {
				skipped := false
				for _, name := range res.Resumed {
					if strings.Contains(name, sr.Scenario.Name) {
						skipped = true
					}
				}
				if skipped != sr.Restored {
					t.Errorf("seed %d %s: scenario %d Restored=%v but skipped=%v",
						seed, kill.name, si, sr.Restored, skipped)
				}
			}

			assertReportsEquivalent(t, ref, res, kill.name)
			j2.Close()
		}
	}
}

// TestResumeCompletedCampaign: resuming a journal whose campaign finished
// re-executes nothing, reproduces the report and writes nothing: MANIFEST
// and the wal stay byte-identical and no snapshot appears, because no
// provider's stream restarts.
func TestResumeCompletedCampaign(t *testing.T) {
	nl := testutil.RandomNetlist(5, testutil.RandOpts{Inputs: 4, Gates: 14, FFs: 1, Outputs: 2})
	scenarios := resumeScenarios()
	dir := t.TempDir()

	j1, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := RunCampaign(context.Background(), nl, fault.NewUniverse(nl), scenarios, Options{Journal: j1})
	if err != nil {
		t.Fatal(err)
	}
	requireNoAborts(t, ref, "first run")
	j1.Close()
	readJournal := func() (manifest, wal []byte) {
		t.Helper()
		manifest, err := os.ReadFile(filepath.Join(dir, "MANIFEST"))
		if err != nil {
			t.Fatal(err)
		}
		wal, err = os.ReadFile(filepath.Join(dir, "wal-0.log"))
		if err != nil {
			t.Fatal(err)
		}
		return manifest, wal
	}
	manifest, wal := readJournal()

	j2, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunCampaign(context.Background(), nl, fault.NewUniverse(nl), scenarios, Options{Journal: j2})
	j2.Close()
	if err != nil {
		t.Fatal(err)
	}
	if m, w := readJournal(); !bytes.Equal(m, manifest) || !bytes.Equal(w, wal) {
		t.Errorf("resuming a finished journal rewrote it: MANIFEST %q → %q, wal %d → %d bytes",
			manifest, m, len(wal), len(w))
	}
	if snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*")); len(snaps) != 0 {
		t.Errorf("resuming a finished journal wrote %v", snaps)
	}
	if got := len(res.Resumed); got != 4 { // baseline + 3 scenarios
		t.Fatalf("resumed %d providers (%v), want all 4", got, res.Resumed)
	}
	for src, n := range j2.AppendedDeltas() {
		if n > 0 {
			t.Errorf("fully resumed run appended %d deltas from %q", n, src)
		}
	}
	assertReportsEquivalent(t, ref, res, "full resume")
}

// walFrame is one record of a journal wal as TestResumeFromEveryRecordBoundary
// walks it: the byte offsets that bound its frame, its kind, and the
// provider a delta or done record names.
type walFrame struct {
	start, end int
	kind       string
	provider   string
}

// walFrames walks a wal file: an 8-byte magic, then frames of a 4-byte
// little-endian payload length, a 4-byte CRC and the JSON payload.
func walFrames(t *testing.T, wal []byte) []walFrame {
	t.Helper()
	var frames []walFrame
	for off := 8; off < len(wal); {
		if len(wal)-off < 8 {
			t.Fatalf("wal ends inside a frame header at %d", off)
		}
		end := off + 8 + int(binary.LittleEndian.Uint32(wal[off:]))
		if end > len(wal) {
			t.Fatalf("frame at %d runs past the wal's %d bytes", off, len(wal))
		}
		var r struct {
			Kind  string                     `json:"kind"`
			Delta *struct{ Provider string } `json:"delta"`
			Done  *struct{ Provider string } `json:"done"`
		}
		if err := json.Unmarshal(wal[off+8:end], &r); err != nil {
			t.Fatalf("frame at %d: %v", off, err)
		}
		f := walFrame{start: off, end: end, kind: r.Kind}
		switch {
		case r.Delta != nil:
			f.provider = r.Delta.Provider
		case r.Done != nil:
			f.provider = r.Done.Provider
		}
		frames = append(frames, f)
		off = end
	}
	return frames
}

// manifestGen reads the generation a journal directory's MANIFEST names.
func manifestGen(t *testing.T, dir string) uint64 {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, "MANIFEST"))
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Gen uint64 `json:"gen"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	return m.Gen
}

// TestResumeFromEveryRecordBoundary resumes every state a crash can leave a
// campaign's journal in. The wal syncs only at the fingerprint and at done
// markers, so after a power loss any prefix of it may be all that reached
// the disk; a cut inside a frame is a torn tail that recovery truncates to
// the frame before. From every frame boundary of a finished campaign's wal,
// and from one cut inside each frame, the resumed run must classify as the
// uninterrupted one, skip exactly the providers whose done marker survived,
// append no delta from their sources, and rotate the wal exactly when a
// surviving delta belongs to a provider that must re-run.
func TestResumeFromEveryRecordBoundary(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		nl := testutil.RandomNetlist(seed, testutil.RandOpts{Inputs: 4, Gates: 16, FFs: 2, Outputs: 2})
		scenarios := resumeScenarios()
		src := t.TempDir()
		j, err := journal.Open(src, journal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ref, err := RunCampaign(context.Background(), nl, fault.NewUniverse(nl), scenarios,
			Options{Serial: true, Journal: j})
		j.Close()
		if err != nil {
			t.Fatalf("seed %d reference: %v", seed, err)
		}
		requireNoAborts(t, ref, "reference")
		manifest, err := os.ReadFile(filepath.Join(src, "MANIFEST"))
		if err != nil {
			t.Fatal(err)
		}
		wal, err := os.ReadFile(filepath.Join(src, "wal-0.log")) // the run never compacted
		if err != nil {
			t.Fatal(err)
		}
		frames := walFrames(t, wal)

		resumeAt := func(cut int, survivors []walFrame) {
			label := fmt.Sprintf("seed %d cut at byte %d of %d (%d whole records)", seed, cut, len(wal), len(survivors))
			done := map[string]bool{}
			for _, f := range survivors {
				if f.kind == "done" {
					done[f.provider] = true
				}
			}
			restarts := false
			for _, f := range survivors {
				restarts = restarts || f.kind == "delta" && !done[f.provider]
			}

			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "MANIFEST"), manifest, 0o666); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, "wal-0.log"), wal[:cut], 0o666); err != nil {
				t.Fatal(err)
			}
			j, err := journal.Open(dir, journal.Options{})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			res, err := RunCampaign(context.Background(), nl, fault.NewUniverse(nl), scenarios,
				Options{Serial: true, Journal: j})
			j.Close()
			if err != nil {
				t.Fatalf("%s: resume: %v", label, err)
			}
			requireNoAborts(t, res, label)
			assertReportsEquivalent(t, ref, res, label)

			resumed := map[string]bool{}
			for _, name := range res.Resumed {
				resumed[name] = true
			}
			if !reflect.DeepEqual(resumed, done) {
				t.Errorf("%s: resumed %v, want the providers whose done marker survived: %v", label, res.Resumed, done)
			}
			for s, n := range j.AppendedDeltas() {
				for name := range done {
					if n > 0 && ownedBy(s, name) {
						t.Errorf("%s: resume appended %d deltas from %q of skipped provider %q", label, n, s, name)
					}
				}
			}
			if rotated := manifestGen(t, dir) > 0; rotated != restarts {
				t.Errorf("%s: wal rotated = %v, want %v (a surviving delta of an unfinished provider)", label, rotated, restarts)
			}
		}
		resumeAt(8, nil)
		for i, f := range frames {
			resumeAt((f.start+f.end)/2, frames[:i])
			resumeAt(f.end, frames[:i+1])
		}
	}
}

// TestWarmStartRestoredBaselineRunsCold: a campaign killed once its
// baseline was durably done resumes with the baseline restored from the
// journal. A restored baseline hands over no tests, so the resumed scenarios
// run cold, without blocking, and the campaign still classifies exactly as
// a fresh run does.
func TestWarmStartRestoredBaselineRunsCold(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		nl := testutil.RandomNetlist(seed, testutil.RandOpts{Inputs: 4, Gates: 16, FFs: 2, Outputs: 2})
		scenarios := resumeScenarios()
		freshReg := obs.New()
		ref, err := RunCampaign(context.Background(), nl, fault.NewUniverse(nl), scenarios,
			Options{Workers: 4, Metrics: freshReg})
		if err != nil {
			t.Fatalf("seed %d reference: %v", seed, err)
		}
		requireNoAborts(t, ref, "reference")
		if freshReg.Snapshot().Counter("flow.warm.patterns") == 0 {
			t.Fatalf("seed %d: the fresh run replayed no baseline test", seed)
		}

		// Serial order runs the baseline first: cancel at its completion.
		dir := t.TempDir()
		j1, err := journal.Open(dir, journal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		_, err = RunCampaign(ctx, nl, fault.NewUniverse(nl), scenarios, Options{
			Serial:  true,
			Journal: j1,
			Progress: func(e Event) {
				if e.Done && e.Provider == "full-scan" {
					cancel()
				}
			},
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("seed %d: interrupted run: %v, want cancellation", seed, err)
		}
		j1.Close()

		j2, err := journal.Open(dir, journal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.New()
		ctx, cancel = context.WithTimeout(context.Background(), time.Minute)
		res, err := RunCampaign(ctx, nl, fault.NewUniverse(nl), scenarios,
			Options{Workers: 4, Journal: j2, Metrics: reg})
		cancel()
		j2.Close()
		if err != nil {
			t.Fatalf("seed %d resume: %v", seed, err)
		}
		if len(res.Resumed) != 1 || res.Resumed[0] != "full-scan" {
			t.Fatalf("seed %d: resumed %v, want only the baseline", seed, res.Resumed)
		}
		if got := reg.Snapshot().Counter("flow.warm.patterns"); got != 0 {
			t.Errorf("seed %d: scenarios replayed %d tests of a restored baseline", seed, got)
		}
		if r, g := ref.ClassDigest(), res.ClassDigest(); r != g {
			t.Errorf("seed %d: resumed digest %s, fresh %s", seed, g, r)
		}
		assertReportsEquivalent(t, ref, res, fmt.Sprintf("seed %d restored baseline", seed))
	}
}

// TestResumeRejectsForeignCampaign: a journal resumes only the campaign it
// fingerprinted.
func TestResumeRejectsForeignCampaign(t *testing.T) {
	nl := testutil.RandomNetlist(9, testutil.RandOpts{Inputs: 3, Gates: 10, FFs: 1, Outputs: 1})
	dir := t.TempDir()

	j1, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunCampaign(context.Background(), nl, fault.NewUniverse(nl),
		[]Scenario{{Name: "a", Observe: constraint.ObserveOutputs}}, Options{Journal: j1}); err != nil {
		t.Fatal(err)
	}
	j1.Close()

	j2, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	_, err = RunCampaign(context.Background(), nl, fault.NewUniverse(nl),
		[]Scenario{{Name: "b", Observe: constraint.ObserveOutputs}}, Options{Journal: j2})
	if err == nil || !strings.Contains(err.Error(), "different campaign") {
		t.Fatalf("foreign campaign accepted a journal: %v", err)
	}
}

func TestEventErrStringAndWire(t *testing.T) {
	e := Event{Provider: "p", Channel: ChannelMission, Source: "p@k=2", Seq: 3, Faults: 7, Done: true}
	if e.ErrString() != "" {
		t.Fatalf("nil error renders %q", e.ErrString())
	}
	e.Err = errors.New("boom")
	if e.ErrString() != "boom" {
		t.Fatalf("ErrString %q", e.ErrString())
	}
	w := e.Wire()
	if w.Channel != "mission" || w.Err != "boom" || w.Source != "p@k=2" || !w.Done || w.Faults != 7 {
		t.Fatalf("wire event %+v", w)
	}
}
