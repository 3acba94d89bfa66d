package resultstore

// index.go maintains the store's persistent entry-metadata index: the
// reason List, Stat and Save are O(index) instead of re-reading every
// envelope in the store on every call.
//
// The in-memory index maps spec group → {dirent names, entry metadata,
// the spec's protocols and graphs}. It is loaded once from
// <dir>/index.json plus the <dir>/index.log journal, then kept honest by a
// cheap freshness walk before every listing: ReadDir of the store root
// (group names) and one Stat per group directory. A group whose recorded
// mtime matches the directory and is older than the filesystem-
// granularity window is proven untouched; a group that moved gets its
// dirent names re-listed, and only when the name set actually changed are
// that group's envelopes re-parsed. The index is therefore a cache with a
// rebuild path, never a source of truth: a corrupt or stale index file,
// files vanished or planted by an external sync, and orphaned .tmp debris
// all converge back to the same listing a full scan would produce — at
// the cost of rescanning only the groups that moved.
//
// Save does not walk: it re-checks only its own group and takes its
// sequence number above the journal's last line, which every handle's
// save appends (see saveFloorLocked).
//
// Persistence is transactional in the crash-safe sense: Save appends one
// journal line after its envelope landed, and snapshot rewrites go
// through a temp file + rename. A save whose line makes the journal
// outgrow the snapshot walks the store and rewrites the snapshot, which
// drops the journal (see noteSavedLocked). A crash between envelope and
// journal leaves the index stale, which the mtime walk detects; a torn
// journal tail is ignored. Persist failures are deliberately non-fatal —
// a store on a read-only mirror still lists fine, just without the
// warm-start.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"
)

const (
	// indexFile and indexJournal live at the store root, outside every
	// spec group, so the group walk never mistakes them for entries.
	indexFile    = "index.json"
	indexJournal = "index.log"
	// indexVersion 2 records each group's protocols and graphs; a snapshot
	// of another version is rejected and rebuilt from the envelopes.
	indexVersion = 2
	// racyWindow is how recently a group directory may have been modified
	// before its mtime stops proving freshness: within one filesystem
	// timestamp granule, a second write can land without moving the mtime,
	// so young groups are verified by re-listing their dirent names (still
	// no envelope reads) instead.
	racyWindow = 2 * time.Second
	// journalTail bounds the bytes Save reads from the end of the journal
	// for its last line, which takes a few hundred; a longer line sends the
	// save down the full walk instead.
	journalTail = 8 << 10
	// journalFloor is the journal size below which a save never compacts
	// it, so a young store with a small snapshot does not rewrite the
	// snapshot on every save.
	journalFloor = 64 << 10
)

// zeroTime marks a group for dirent re-verification on the next walk.
var zeroTime time.Time

// indexEntry is one stored run as the index knows it: the listing
// metadata plus the envelope's on-disk size, which Stat sums.
type indexEntry struct {
	Entry
	Size int64 `json:"size"`
}

// axes are the protocols and graphs a spec sweeps, which filtered
// listings match on. Every run of a spec group shares them (the spec hash
// covers them), so the index keeps them once per group. Nil Protocols
// means unknown: a group first seen in a journal line written before the
// index recorded axes, which the next walk re-parses.
type axes struct {
	Protocols []string `json:"protocols"`
	Graphs    []string `json:"graphs"`
}

// newAxes copies a spec's axes. The copies are never nil, so known axes
// stay distinct from unknown ones, and the index never aliases a caller's
// spec.
func newAxes(protocols, graphs []string) axes {
	return axes{
		Protocols: append([]string{}, protocols...),
		Graphs:    append([]string{}, graphs...),
	}
}

// sweeps reports whether the axes include protocol and graph; an empty
// argument matches any.
func (a axes) sweeps(protocol, graph string) bool {
	return (protocol == "" || slices.Contains(a.Protocols, protocol)) &&
		(graph == "" || slices.Contains(a.Graphs, graph))
}

// groupState is the index's view of one spec-group directory. Entries is
// keyed by dirent name ("<label>.json") and Files records every dirent —
// debris included — so known-inert .tmp orphans and foreign files do not
// force a reparse on every freshness walk.
type groupState struct {
	Files   []string              `json:"files"`
	Entries map[string]indexEntry `json:"entries"`
	axes
	// mtime is the directory mtime that Files/Entries were verified
	// against; zero means "verify by name comparison on next walk".
	mtime time.Time
}

// journalLine is one index.log line: a saved run and its group's axes.
type journalLine struct {
	indexEntry
	axes
}

// storeIndex is the in-memory index; it lives inside Store behind its
// mutex.
type storeIndex struct {
	groups map[string]*groupState
	loaded bool
	// sorted caches the List ordering; nil after any mutation that is not
	// an append at its end.
	sorted []Entry
	// snapshotSize is the size of the snapshot this handle last read or
	// wrote; the journal is compacted once it outgrows it.
	snapshotSize int64
}

// indexSnapshot is the persisted form.
type indexSnapshot struct {
	Version int                    `json:"version"`
	Groups  map[string]*groupState `json:"groups"`
}

// loadOnceLocked loads the persisted index on a handle's first use.
func (s *Store) loadOnceLocked() {
	if !s.idx.loaded {
		s.loadIndexLocked()
		s.idx.loaded = true
	}
}

// loadIndexLocked reads the persisted snapshot and journal, best-effort:
// anything unparseable or implausible degrades to an empty index, which
// the freshness walk rebuilds from the directory tree. The journal is
// replayed even when the snapshot is rejected; a group it brings in
// without axes is re-parsed by the next walk.
func (s *Store) loadIndexLocked() {
	s.idx.groups = map[string]*groupState{}
	data, err := os.ReadFile(filepath.Join(s.dir, indexFile))
	if err == nil {
		var snap indexSnapshot
		if json.Unmarshal(data, &snap) == nil && snap.Version == indexVersion {
			s.idx.snapshotSize = int64(len(data))
			for hash, g := range snap.Groups {
				if g == nil || !plausibleGroup(hash, g) {
					continue
				}
				if g.Entries == nil {
					g.Entries = map[string]indexEntry{}
				}
				slices.Sort(g.Files)
				s.idx.groups[hash] = g
			}
		}
	}
	// Replay the journal: entries saved since the last snapshot rewrite.
	// A torn final line (crash mid-append) ends the replay silently.
	jf, err := os.Open(filepath.Join(s.dir, indexJournal))
	if err != nil {
		return
	}
	defer jf.Close()
	sc := bufio.NewScanner(jf)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	for sc.Scan() {
		var line journalLine
		if json.Unmarshal(sc.Bytes(), &line) != nil || line.SpecHash == "" || line.Label == "" {
			return
		}
		s.applyEntryLocked(line.indexEntry, line.axes)
	}
}

// plausibleGroup rejects snapshot groups that could not describe a real
// spec group — every entry must sit at its own key, in a file that the
// group lists.
func plausibleGroup(hash string, g *groupState) bool {
	if hash == "" || strings.ContainsAny(hash, "/\\") {
		return false
	}
	for file, ie := range g.Entries {
		if ie.SpecHash != hash || ie.Label == "" || ie.Label+".json" != file || !slices.Contains(g.Files, file) {
			return false
		}
	}
	return true
}

// applyEntryLocked folds one saved entry into the in-memory index. Known
// axes replace the group's; unknown ones (an old journal line) leave them.
func (s *Store) applyEntryLocked(ie indexEntry, a axes) {
	g := s.idx.groups[ie.SpecHash]
	if g == nil {
		g = &groupState{Entries: map[string]indexEntry{}}
		s.idx.groups[ie.SpecHash] = g
	}
	if a.Protocols != nil {
		g.axes = a
	}
	file := ie.Label + ".json"
	_, replaced := g.Entries[file]
	g.Entries[file] = ie
	if i, found := slices.BinarySearch(g.Files, file); !found {
		g.Files = slices.Insert(g.Files, i, file)
	}
	g.mtime = zeroTime // re-verify the group's dirents on the next walk
	// A save takes the next sequence number, so it normally sorts last:
	// extend the cached List order rather than re-sort every entry.
	n := len(s.idx.sorted)
	if !replaced && s.idx.sorted != nil && (n == 0 || entryLess(s.idx.sorted[n-1], ie.Entry)) {
		s.idx.sorted = append(s.idx.sorted, ie.Entry)
	} else {
		s.idx.sorted = nil
	}
}

// refreshLocked brings the index up to date with the directory tree. It
// reads directory metadata only — never an envelope — unless a group's
// dirent names changed, in which case just that group is re-parsed. On
// error the index keeps its previous state.
func (s *Store) refreshLocked() error {
	s.loadOnceLocked()
	dirs, err := os.ReadDir(s.dir)
	if err != nil {
		if os.IsNotExist(err) {
			if len(s.idx.groups) > 0 {
				s.idx.groups = map[string]*groupState{}
				s.idx.sorted = nil
			}
			return nil
		}
		return errStore(err)
	}
	changed, rebuilt := false, 0
	onDisk := map[string]bool{}
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		name := d.Name()
		onDisk[name] = true
		moved, parsed, err := s.freshenGroupLocked(name)
		if err != nil {
			return err
		}
		changed = changed || moved
		if parsed {
			rebuilt++
		}
	}
	for name := range s.idx.groups {
		if !onDisk[name] {
			delete(s.idx.groups, name)
			changed = true
		}
	}
	if changed {
		s.idx.sorted = nil
		s.persistIndexLocked()
	}
	if rebuilt == 0 {
		s.metrics.IndexHit()
	} else {
		s.metrics.IndexRebuilds(rebuilt)
	}
	return nil
}

// freshenGroupLocked brings one spec group of the index up to date with
// its directory: a Stat, then a re-list of its dirent names unless the
// mtime proves it untouched, then a re-parse of its envelopes only if the
// names changed or its axes are unknown. changed reports that the group's
// entries may differ from before, parsed that its envelopes were read.
func (s *Store) freshenGroupLocked(name string) (changed, parsed bool, err error) {
	g := s.idx.groups[name]
	if g == nil || (g.Protocols == nil && len(g.Entries) > 0) {
		return true, true, s.syncGroupLocked(name)
	}
	dir := filepath.Join(s.dir, name)
	st, err := os.Stat(dir)
	if err != nil {
		delete(s.idx.groups, name)
		return true, false, nil
	}
	mt := st.ModTime()
	settled := time.Since(mt) >= racyWindow
	if settled && g.mtime.Equal(mt) {
		return false, false, nil // proven untouched since last verification
	}
	names, err := readNames(dir)
	if err != nil {
		if os.IsNotExist(err) {
			delete(s.idx.groups, name)
			return true, false, nil
		}
		return false, false, errStore(err)
	}
	if !slices.Equal(names, g.Files) {
		return true, true, s.syncGroupLocked(name)
	}
	if settled {
		g.mtime = mt
	} else {
		g.mtime = zeroTime
	}
	return false, false, nil
}

// syncGroupLocked re-reads one spec group's directory and parses the
// metadata of every envelope in it, with the same mutation tolerance the
// scan-based List always had: vanished files, half-written JSON and
// foreign documents are skipped; a file that exists and parses but cannot
// be read at all fails loud so a broken store never shrinks silently.
func (s *Store) syncGroupLocked(hash string) error {
	dir := filepath.Join(s.dir, hash)
	st, err := os.Stat(dir)
	if err != nil {
		delete(s.idx.groups, hash)
		if os.IsNotExist(err) {
			return nil
		}
		return errStore(err)
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		delete(s.idx.groups, hash)
		if os.IsNotExist(err) {
			return nil
		}
		return errStore(err)
	}
	g := &groupState{Entries: map[string]indexEntry{}}
	for _, f := range files {
		g.Files = append(g.Files, f.Name())
		if f.IsDir() || !strings.HasSuffix(f.Name(), ".json") {
			continue
		}
		e, a, err := s.readEntry(filepath.Join(dir, f.Name()))
		if err != nil {
			if errors.Is(err, os.ErrNotExist) || isParseError(err) {
				continue // vanished or partial file
			}
			return err // unreadable store: surface, don't shrink
		}
		if e.SpecHash != hash || e.Label+".json" != f.Name() || validName(e.Label) != nil {
			// Foreign JSON, or an envelope copied in from another group or
			// under another name: a file is a stored run only at its own
			// key, the one GetEntry reads, so no run is listed twice and
			// every ref names one run.
			continue
		}
		var size int64
		if info, err := f.Info(); err == nil {
			size = info.Size()
		}
		g.Entries[f.Name()] = indexEntry{Entry: e, Size: size}
		if g.Protocols == nil {
			g.axes = a
		}
	}
	if mt := st.ModTime(); time.Since(mt) >= racyWindow {
		g.mtime = mt
	}
	s.idx.groups[hash] = g
	return nil
}

// readNames lists a directory's dirent names (ReadDir returns them
// sorted, matching groupState.Files order).
func readNames(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(ents))
	for i, e := range ents {
		names[i] = e.Name()
	}
	return names, nil
}

// entryLess is the List order: by sequence, then by ref for entries that
// predate the sequence or tied in a cross-process race.
func entryLess(a, b Entry) bool {
	if a.Seq != b.Seq {
		return a.Seq < b.Seq
	}
	return a.Ref() < b.Ref()
}

// listLocked returns, in List order, the entries whose group sweeps
// protocol and graph (empty arguments match any) as a fresh slice that
// callers keep past the lock.
func (s *Store) listLocked(protocol, graph string) []Entry {
	if s.idx.sorted == nil {
		out := []Entry{}
		for _, g := range s.idx.groups {
			for _, ie := range g.Entries {
				out = append(out, ie.Entry)
			}
		}
		sort.Slice(out, func(i, j int) bool { return entryLess(out[i], out[j]) })
		s.idx.sorted = out
	}
	if protocol == "" && graph == "" {
		if len(s.idx.sorted) == 0 {
			return nil
		}
		return slices.Clone(s.idx.sorted)
	}
	var out []Entry
	for _, e := range s.idx.sorted {
		if s.idx.groups[e.SpecHash].sweeps(protocol, graph) {
			out = append(out, e)
		}
	}
	return out
}

// nextSeqLocked returns one past the highest stored sequence number.
func (s *Store) nextSeqLocked() int {
	seq := 1
	for _, g := range s.idx.groups {
		for _, ie := range g.Entries {
			if ie.Seq >= seq {
				seq = ie.Seq + 1
			}
		}
	}
	return seq
}

// saveFloorLocked readies the index for a save into group hash and
// returns a sequence number the save must exceed. Every handle's save
// appends a journal line, so the seq on its last line is the newest save,
// also one this handle never listed; the save then needs only its own
// group re-checked, for the auto-label choice. Without a readable journal
// (a fresh store, or one whose snapshot a walk just rewrote) the full
// freshness walk stands in, and the index's maximum is the floor.
func (s *Store) saveFloorLocked(hash string) (int, error) {
	s.loadOnceLocked()
	floor, ok := lastJournalSeq(filepath.Join(s.dir, indexJournal))
	if !ok {
		return 0, s.refreshLocked()
	}
	changed, parsed, err := s.freshenGroupLocked(hash)
	if changed {
		s.idx.sorted = nil
	}
	if parsed {
		s.metrics.IndexRebuilds(1)
	}
	return floor, err
}

// lastJournalSeq reads the seq on the journal's last line. ok is false
// when there is no journal, or its last line is torn, garbled or longer
// than journalTail.
func lastJournalSeq(path string) (seq int, ok bool) {
	f, err := os.Open(path)
	if err != nil {
		return 0, false
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, false
	}
	off := max(st.Size()-journalTail, 0)
	buf := make([]byte, st.Size()-off)
	if _, err := f.ReadAt(buf, off); err != nil {
		return 0, false
	}
	buf, complete := bytes.CutSuffix(buf, []byte("\n"))
	if !complete {
		return 0, false // empty, or torn mid-append
	}
	var line journalLine
	if json.Unmarshal(buf[bytes.LastIndexByte(buf, '\n')+1:], &line) != nil ||
		line.SpecHash == "" || line.Label == "" {
		return 0, false
	}
	return line.Seq, true
}

// noteSavedLocked records a just-written envelope in the index and its
// journal — the transactional half-step that keeps warm restarts exact.
//
// Once the journal outgrows both the snapshot it would fold into and
// journalFloor, the save compacts it: a cold Open then replays at most
// about a snapshot's worth of lines, and each compaction costs O(index)
// once per Θ(index) saves. The freshness walk first folds in every other
// handle's saves, since the rewrite drops their journal lines too. A line
// another handle appends between the snapshot rename and the journal
// removal is lost with the journal; its envelope is on disk, and the walk
// lists it again.
func (s *Store) noteSavedLocked(ie indexEntry, a axes) {
	s.applyEntryLocked(ie, a)
	data, err := json.Marshal(journalLine{ie, a})
	if err != nil {
		return
	}
	jf, err := os.OpenFile(filepath.Join(s.dir, indexJournal), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return
	}
	jf.Write(append(data, '\n'))
	st, err := jf.Stat()
	jf.Close()
	if err != nil || st.Size() <= max(s.idx.snapshotSize, journalFloor) {
		return
	}
	if s.refreshLocked() == nil {
		s.persistIndexLocked()
	}
}

// persistIndexLocked rewrites the snapshot atomically and truncates the
// journal it supersedes. Best-effort by design; see the file comment.
func (s *Store) persistIndexLocked() {
	data, err := json.Marshal(indexSnapshot{Version: indexVersion, Groups: s.idx.groups})
	if err != nil {
		return
	}
	tf, err := os.CreateTemp(s.dir, indexFile+".*.tmp")
	if err != nil {
		return
	}
	tmp := tf.Name()
	if _, err := tf.Write(data); err != nil {
		tf.Close()
		os.Remove(tmp)
		return
	}
	if err := tf.Close(); err != nil {
		os.Remove(tmp)
		return
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, indexFile)); err != nil {
		os.Remove(tmp)
		return
	}
	s.idx.snapshotSize = int64(len(data))
	os.Remove(filepath.Join(s.dir, indexJournal))
}
