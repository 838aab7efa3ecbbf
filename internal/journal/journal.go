// Package journal persists campaign evidence durably: an append-only
// write-ahead log of merged deltas plus the compacted snapshot a resume
// writes when it restarts a provider's stream, so a crashed or killed
// campaign resumes paying only for providers that had not finished.
//
// # Layout
//
// A journal is a directory owned by one campaign run:
//
//	MANIFEST        {"gen":N} — names the live generation, flipped atomically
//	snap-N.log      compacted state at the moment generation N began (absent
//	                for generation 0 of a fresh journal)
//	wal-N.log       every record appended since, in commit order
//
// Both files use the same framing: a magic header followed by length- and
// CRC32-framed JSON records (4-byte little-endian payload length, 4-byte
// little-endian IEEE CRC of the payload, payload). The record payloads are
// a kind-tagged envelope over wire-format values, so journal bytes and
// network bytes share one serialization.
//
// # Durability and crash windows
//
// The wal is forced to disk only at the records recovery acts on: SetMeta
// and AppendDone fsync, AppendDelta and AppendResult only write their frame.
// Resume skips a provider exactly when it finds the provider's done marker
// and re-runs every other provider from scratch, so a done marker is its
// provider's commit record. Its fsync makes the marker, the provider's
// result and every earlier record of the wal durable. A power loss can
// therefore cost only records appended after the last done marker: deltas
// and results of providers that had not finished, which resume re-executes
// anyway, and the lattice merge is idempotent under re-announced evidence. A
// process crash without a power loss costs at most the frame it interrupts,
// because the kernel already holds every frame written before it. Either way
// the damage is a tail: cut short, CRC-broken or zero-filled, never inside
// the synced prefix.
//
// Deltas are appended *after* the in-memory lattice accepts them, and a
// provider's result strictly before its done marker, so a journal never
// marks a provider skippable without the evidence and result it produced.
//
// Fresh-journal creation and compaction sync every file and directory they
// write. Compaction writes the full snapshot to a temp file, fsyncs, renames
// it into place, opens a fresh empty wal, and only then flips MANIFEST
// (itself written via temp + rename + directory fsync). A crash at any point
// leaves MANIFEST naming a generation whose files are complete: before the
// flip the old generation is still live and untouched, after it the new one
// is. Stale generations are deleted lazily on the next Open. Rotating the
// wal at every compaction also guarantees a single wal never contains a
// source restarting its sequence numbering: resume compacts whenever it
// resets a source to seq 0, so replay never sees an in-stream seq reset.
//
// # Recovery
//
// Open reads the live generation's snapshot (which must be intact — it was
// renamed into place complete) and then the wal, tolerating a damaged tail:
// a record cut short, one whose CRC does not match, or a zero-length frame
// (the zero-filled tail a power loss leaves on filesystems that persist a
// file's size before its data) ends replay, and the file is truncated back
// to the last whole record. A record that passes its CRC but fails to parse
// is a hard error — that is software corruption, not a crash artifact, and
// resuming past it would silently drop evidence.
package journal

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"olfui/internal/fault"
	"olfui/internal/wire"
)

// magic heads every journal file; the trailing digit is the framing version.
const magic = "OLFJNL1\n"

// maxRecord bounds one record's payload. A framed length beyond it is treated
// as tail corruption, not an allocation request.
const maxRecord = 1 << 28

// Options configures a journal. It has no fields: durability has no knob
// (the wal syncs at the campaign fingerprint and at every done marker, and
// nowhere else; see "Durability and crash windows" in the package doc), and
// compaction happens only when the caller asks for it.
type Options struct{}

// ProviderResult is a provider's journaled terminal result: the payload a
// skipped (already-finished) provider contributes to the final Report on
// resume. Kind names the provider family that knows how to restore Data.
type ProviderResult struct {
	Provider string          `json:"provider"`
	Kind     string          `json:"kind"`
	Data     json.RawMessage `json:"data"`
}

// Delta is one journaled evidence batch: which channel it merged into, which
// provider emitted it, and the batch itself.
type Delta struct {
	Channel  string
	Provider string
	D        fault.Delta
}

// State is everything recovered from a journal at Open: the campaign
// fingerprint, per-channel accumulator snapshots from the last compaction,
// the wal's delta suffix in commit order, and the results and merged-delta
// counts of providers that finished before the crash.
type State struct {
	Meta     json.RawMessage
	Channels map[string]*fault.AccumulatorSnapshot
	Deltas   []Delta
	Done     map[string]int // provider → merged delta count at completion
	Results  map[string]*ProviderResult
}

// CompactState is the full campaign state a compaction persists.
type CompactState struct {
	Meta     json.RawMessage
	Channels map[string]*fault.AccumulatorSnapshot
	Done     map[string]int
	Results  map[string]*ProviderResult
}

// record is the kind-tagged envelope framed into journal files.
type record struct {
	Kind   string          `json:"kind"`
	Meta   json.RawMessage `json:"meta,omitempty"`
	Delta  *deltaRecord    `json:"delta,omitempty"`
	Chan   *chanRecord     `json:"chan,omitempty"`
	Done   *doneRecord     `json:"done,omitempty"`
	Result *ProviderResult `json:"result,omitempty"`
}

type deltaRecord struct {
	Channel  string      `json:"channel"`
	Provider string      `json:"provider"`
	D        *wire.Delta `json:"d"`
}

type chanRecord struct {
	Channel string         `json:"channel"`
	S       *wire.Snapshot `json:"s"`
}

type doneRecord struct {
	Provider string `json:"provider"`
	Merged   int    `json:"merged"`
}

// Journal is a durable campaign evidence log. Appends are safe for
// concurrent use; in the campaign they arrive already serialized under the
// merge lock, in commit order.
type Journal struct {
	dir string

	mu        sync.Mutex
	wal       *os.File
	gen       uint64
	recovered *State
	appended  map[string]int // per-source deltas appended this process
	closed    bool
}

// Open opens (or creates) the journal in dir and recovers its state. A
// truncated wal tail is repaired in place; see the package comment for what
// recovery tolerates versus rejects.
func Open(dir string, _ Options) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	j := &Journal{dir: dir, appended: map[string]int{}}

	gen, haveManifest, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	if !haveManifest {
		// Fresh journal: generation 0, no snapshot, empty wal, then the
		// manifest — created last so a half-created journal is invisible.
		// Whatever generation files a crash left before the manifest hold
		// no journal, so they go first.
		j.cleanStale(false)
		if err := j.openWal(0, true); err != nil {
			return nil, err
		}
		if err := writeManifest(dir, 0); err != nil {
			j.wal.Close()
			return nil, err
		}
		return j, nil
	}
	j.gen = gen

	st := &State{
		Channels: map[string]*fault.AccumulatorSnapshot{},
		Done:     map[string]int{},
		Results:  map[string]*ProviderResult{},
	}
	empty := true

	snapPath := filepath.Join(dir, snapName(gen))
	if raw, err := os.ReadFile(snapPath); err == nil {
		recs, _, tail := readFrames(raw)
		if tail != nil {
			// Snapshots are renamed into place complete; damage is not a
			// crash artifact.
			return nil, fmt.Errorf("journal: snapshot %s corrupt: %w", snapName(gen), tail)
		}
		for _, r := range recs {
			if err := st.fold(r); err != nil {
				return nil, fmt.Errorf("journal: snapshot %s: %w", snapName(gen), err)
			}
		}
		empty = false
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("journal: %w", err)
	}

	walPath := filepath.Join(dir, walName(gen))
	raw, err := os.ReadFile(walPath)
	if err != nil {
		if !os.IsNotExist(err) {
			return nil, fmt.Errorf("journal: %w", err)
		}
		// Manifest names a generation whose wal is missing: the wal is
		// created before the manifest flips, so this is real damage.
		return nil, fmt.Errorf("journal: manifest names generation %d but %s is missing", gen, walName(gen))
	}
	recs, valid, tail := readFrames(raw)
	recreate := false
	if tail != nil {
		if fatal, ok := tail.(*corruptError); ok && fatal.hard {
			return nil, fmt.Errorf("journal: wal %s: %w", walName(gen), tail)
		}
		// Crash-truncated tail: keep the intact prefix. If even the magic
		// header was cut short the file holds nothing — recreate it whole
		// so future appends land after a complete header.
		if valid < int64(len(magic)) {
			recreate = true
			if err := os.Remove(walPath); err != nil {
				return nil, fmt.Errorf("journal: removing headerless wal: %w", err)
			}
		} else if err := os.Truncate(walPath, valid); err != nil {
			return nil, fmt.Errorf("journal: truncating damaged wal tail: %w", err)
		}
	}
	for _, r := range recs {
		if err := st.fold(r); err != nil {
			return nil, fmt.Errorf("journal: wal %s: %w", walName(gen), err)
		}
		empty = false
	}

	if err := j.openWal(gen, recreate); err != nil {
		return nil, err
	}
	if !empty {
		j.recovered = st
	}
	j.cleanStale(true)
	return j, nil
}

// fold applies one recovered record to the state, in file order.
func (s *State) fold(r record) error {
	switch r.Kind {
	case "meta":
		s.Meta = r.Meta
	case "chan":
		if r.Chan == nil || r.Chan.S == nil {
			return fmt.Errorf("chan record without payload")
		}
		s.Channels[r.Chan.Channel] = r.Chan.S.Fault()
	case "delta":
		if r.Delta == nil || r.Delta.D == nil {
			return fmt.Errorf("delta record without payload")
		}
		s.Deltas = append(s.Deltas, Delta{
			Channel:  r.Delta.Channel,
			Provider: r.Delta.Provider,
			D:        r.Delta.D.Fault(),
		})
	case "done":
		if r.Done == nil {
			return fmt.Errorf("done record without payload")
		}
		s.Done[r.Done.Provider] = r.Done.Merged
	case "result":
		if r.Result == nil {
			return fmt.Errorf("result record without payload")
		}
		s.Results[r.Result.Provider] = r.Result
	default:
		return fmt.Errorf("unknown record kind %q", r.Kind)
	}
	return nil
}

// Recovered returns the state recovered at Open, or nil if the journal was
// fresh (or held nothing but its own skeleton). The caller owns the state.
func (j *Journal) Recovered() *State { return j.recovered }

// Dir returns the journal directory.
func (j *Journal) Dir() string { return j.dir }

// SetMeta appends the campaign fingerprint record and syncs the wal. A fresh
// journal records it before any evidence so resume can refuse a mismatched
// campaign.
func (j *Journal) SetMeta(meta json.RawMessage) error {
	return j.append(record{Kind: "meta", Meta: meta}, true)
}

// AppendDelta journals one committed evidence batch without syncing: until
// its provider's done marker commits it, a power loss may take it, and
// resume re-runs that provider anyway.
func (j *Journal) AppendDelta(channel, provider string, d fault.Delta) error {
	err := j.append(record{Kind: "delta", Delta: &deltaRecord{
		Channel: channel, Provider: provider, D: wire.FromDelta(d),
	}}, false)
	if err == nil {
		j.mu.Lock()
		j.appended[d.Source]++
		j.mu.Unlock()
	}
	return err
}

// AppendResult journals a provider's terminal result without syncing. It
// must come before the provider's done marker, whose sync commits it: a done
// marker without a result would leave a resumed Report unable to account for
// the skipped provider.
func (j *Journal) AppendResult(r *ProviderResult) error {
	return j.append(record{Kind: "result", Result: r}, false)
}

// AppendDone journals a provider-finished marker with its merged delta count
// and syncs the wal. The marker is its provider's commit record: once
// AppendDone returns, the marker, the provider's result and every earlier
// record are durable, and resume will skip the provider.
func (j *Journal) AppendDone(provider string, merged int) error {
	return j.append(record{Kind: "done", Done: &doneRecord{Provider: provider, Merged: merged}}, true)
}

// AppendedDeltas returns how many deltas this process appended per source
// since Open — the observable that lets tests verify a resumed campaign
// re-executed only incomplete sources.
func (j *Journal) AppendedDeltas() map[string]int {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make(map[string]int, len(j.appended))
	for s, n := range j.appended {
		out[s] = n
	}
	return out
}

// Compact persists the full campaign state as a new generation: snapshot
// file, fresh wal, then the manifest flip. On return the old generation's
// wal is obsolete and removed.
func (j *Journal) Compact(s *CompactState) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("journal: closed")
	}
	gen := j.gen + 1

	var recs []record
	if len(s.Meta) > 0 {
		recs = append(recs, record{Kind: "meta", Meta: s.Meta})
	}
	for _, ch := range sortedKeys(s.Channels) {
		recs = append(recs, record{Kind: "chan", Chan: &chanRecord{
			Channel: ch, S: wire.FromSnapshot(s.Channels[ch]),
		}})
	}
	for _, p := range sortedKeys(s.Results) {
		recs = append(recs, record{Kind: "result", Result: s.Results[p]})
	}
	for _, p := range sortedKeys(s.Done) {
		recs = append(recs, record{Kind: "done", Done: &doneRecord{Provider: p, Merged: s.Done[p]}})
	}

	snapPath := filepath.Join(j.dir, snapName(gen))
	tmp := snapPath + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if _, err := f.WriteString(magic); err == nil {
		for _, r := range recs {
			if err = writeFrame(f, r); err != nil {
				break
			}
		}
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, snapPath)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("journal: writing snapshot: %w", err)
	}
	syncDir(j.dir)

	oldWal, oldGen := j.wal, j.gen
	if err := j.openWal(gen, true); err != nil {
		// The new snapshot is orphaned but harmless; the manifest still
		// names the old, fully intact generation.
		os.Remove(snapPath)
		return err
	}
	if err := writeManifest(j.dir, gen); err != nil {
		j.wal.Close()
		j.wal = oldWal
		os.Remove(filepath.Join(j.dir, walName(gen)))
		os.Remove(snapPath)
		return err
	}
	j.gen = gen
	oldWal.Close()
	os.Remove(filepath.Join(j.dir, walName(oldGen)))
	os.Remove(filepath.Join(j.dir, snapName(oldGen)))
	return nil
}

// Close closes the wal. The journal stays recoverable — Close is not a
// compaction.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	return j.wal.Close()
}

// append frames r onto the wal and, with sync set, forces the wal to disk.
func (j *Journal) append(r record, sync bool) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("journal: closed")
	}
	if err := writeFrame(j.wal, r); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if sync {
		if err := j.wal.Sync(); err != nil {
			return fmt.Errorf("journal: %w", err)
		}
	}
	return nil
}

// openWal opens generation gen's wal for appending, creating it (magic
// header, synced) when create is set.
func (j *Journal) openWal(gen uint64, create bool) error {
	path := filepath.Join(j.dir, walName(gen))
	flags := os.O_WRONLY | os.O_APPEND
	if create {
		flags |= os.O_CREATE | os.O_EXCL
	}
	f, err := os.OpenFile(path, flags, 0o666)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if create {
		if _, err := f.WriteString(magic); err == nil {
			err = f.Sync()
		}
		if err != nil {
			f.Close()
			os.Remove(path)
			return fmt.Errorf("journal: %w", err)
		}
		syncDir(j.dir)
	}
	j.wal = f
	return nil
}

// cleanStale best-effort deletes every generation file (wal, snapshot, a
// temp file of either, MANIFEST.tmp) except the live generation's wal and
// snapshot. With live set those are the ones the manifest names, and the
// rest are leftovers of a crash mid-compaction. Without it no generation is
// live: the directory has no manifest, so it holds no journal, and whatever
// files a crash left while creating one all go.
func (j *Journal) cleanStale(live bool) {
	ents, err := os.ReadDir(j.dir)
	if err != nil {
		return
	}
	keepWal, keepSnap := walName(j.gen), snapName(j.gen)
	for _, e := range ents {
		name := e.Name()
		if live && (name == keepWal || name == keepSnap) {
			continue
		}
		base, tmp := strings.CutSuffix(name, ".tmp")
		var gen uint64
		if tmp && base == "MANIFEST" || sscanGen(base, "wal-%d.log", &gen) || sscanGen(base, "snap-%d.log", &gen) {
			os.Remove(filepath.Join(j.dir, name))
		}
	}
}

func sscanGen(name, format string, gen *uint64) bool {
	var tail string
	n, err := fmt.Sscanf(name, format+"%s", gen, &tail)
	return err != nil && n == 1 // exactly the pattern, nothing trailing
}

func walName(gen uint64) string  { return fmt.Sprintf("wal-%d.log", gen) }
func snapName(gen uint64) string { return fmt.Sprintf("snap-%d.log", gen) }

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// --- manifest ---

type manifest struct {
	Gen uint64 `json:"gen"`
}

func readManifest(dir string) (gen uint64, ok bool, err error) {
	raw, err := os.ReadFile(filepath.Join(dir, "MANIFEST"))
	if os.IsNotExist(err) {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, fmt.Errorf("journal: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return 0, false, fmt.Errorf("journal: manifest corrupt: %w", err)
	}
	return m.Gen, true, nil
}

func writeManifest(dir string, gen uint64) error {
	raw, err := json.Marshal(manifest{Gen: gen})
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, "MANIFEST.tmp")
	if err := os.WriteFile(tmp, raw, 0o666); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if f, err := os.Open(tmp); err == nil {
		f.Sync()
		f.Close()
	}
	if err := os.Rename(tmp, filepath.Join(dir, "MANIFEST")); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("journal: %w", err)
	}
	syncDir(dir)
	return nil
}

// syncDir fsyncs a directory so a rename is durable. Best effort: some
// filesystems reject directory fsync, and the fallback cost is only a
// longer recoverable suffix.
func syncDir(dir string) {
	if f, err := os.Open(dir); err == nil {
		f.Sync()
		f.Close()
	}
}

// --- framing ---

// corruptError classifies frame damage: soft means a crash-truncated tail
// (recoverable by truncation), hard means damage that cannot come from an
// append cut short.
type corruptError struct {
	hard bool
	msg  string
}

func (e *corruptError) Error() string { return e.msg }

// writeFrame appends one CRC-framed record to w.
func writeFrame(w *os.File, r record) error {
	payload, err := json.Marshal(r)
	if err != nil {
		return err
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err = w.Write(payload)
	return err
}

// readFrames parses a whole journal file. It returns the records of the
// intact prefix, the byte length of that prefix (a valid truncation point),
// and a *corruptError describing the tail if the file does not end cleanly.
func readFrames(data []byte) (recs []record, valid int64, tail error) {
	if len(data) < len(magic) {
		if string(data) == magic[:len(data)] {
			// Crash while writing the header: an empty journal.
			return nil, 0, &corruptError{msg: "truncated file header"}
		}
		return nil, 0, &corruptError{hard: true, msg: "not a journal file"}
	}
	if string(data[:len(magic)]) != magic {
		return nil, 0, &corruptError{hard: true, msg: "bad magic (not a journal file or foreign framing version)"}
	}
	off := len(magic)
	for off < len(data) {
		rest := data[off:]
		if len(rest) < 8 {
			return recs, int64(off), &corruptError{msg: "truncated record header"}
		}
		n := binary.LittleEndian.Uint32(rest[0:4])
		sum := binary.LittleEndian.Uint32(rest[4:8])
		if n == 0 {
			// writeFrame never writes an empty payload, and an empty payload's
			// CRC is 0: these are zero bytes at a frame boundary, the tail of
			// a file whose size reached the disk before its data did.
			return recs, int64(off), &corruptError{msg: "zero-length record (zero-filled tail)"}
		}
		if n > maxRecord {
			return recs, int64(off), &corruptError{msg: fmt.Sprintf("implausible record length %d", n)}
		}
		if len(rest) < 8+int(n) {
			return recs, int64(off), &corruptError{msg: "truncated record payload"}
		}
		payload := rest[8 : 8+n]
		if crc32.ChecksumIEEE(payload) != sum {
			return recs, int64(off), &corruptError{msg: "record CRC mismatch"}
		}
		var r record
		if err := json.Unmarshal(payload, &r); err != nil {
			// The CRC held, so these are the bytes that were written:
			// software corruption, not a torn append.
			return recs, int64(off), &corruptError{hard: true, msg: fmt.Sprintf("CRC-valid record fails to parse: %v", err)}
		}
		recs = append(recs, r)
		off += 8 + int(n)
	}
	return recs, int64(off), nil
}
