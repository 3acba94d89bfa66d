// Package resultstore persists campaign reports on disk and diffs them
// across runs, making regressions in round or bit complexity
// machine-detectable between code revisions. Storage is content-addressed
// by spec: a report lands under the SHA-256 hash of its normalized spec,
// tagged with a git-describe-style label, so runs of the same campaign at
// different revisions line up automatically and `Diff` can report per-cell
// deltas in rounds, bits, outcome counts and schedule tallies.
//
// Layout (every entry is a JSON document, safe to inspect and to commit):
//
//	<dir>/<spec-hash>/<label>.json    one stored run (envelope + report)
//	<dir>/index.json, <dir>/index.log entry-metadata index (cache; see index.go)
//
// Inside an envelope the per-cell results travel as a varint-columnar
// blob ("cells_packed", see codec.go) — an internal format: every read
// path decodes back to the exact cell structs, so reports round-trip
// byte-identical through WriteJSON, and envelopes written before the
// columnar format (a plain "report.cells" array) still load.
//
// Labels are caller-chosen ("v1.2-3-gabc123") or auto-assigned sequence
// numbers ("run-001"); a store-wide monotone sequence recorded in each
// envelope orders runs without trusting file mtimes.
package resultstore

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"

	"repro/internal/campaign"
	"repro/internal/jsonindent"
	"repro/internal/telemetry"
)

// Sentinel errors, matchable with errors.Is so callers (the diff CLI, the
// HTTP server) can map store conditions to exit codes and status codes
// without string-sniffing.
var (
	// ErrNotFound reports that no stored run matches a keyed lookup or ref.
	ErrNotFound = errors.New("no matching stored run")
	// ErrNeedTwoRuns reports that the store does not yet hold two runs of
	// the same spec, so there is nothing to diff — a state, not a failure:
	// CI gates should treat it as success-with-nothing-to-compare.
	ErrNeedTwoRuns = errors.New("need two stored runs to diff")
	// ErrLabelTaken reports a save under a label that already exists for
	// the spec (stored runs are immutable).
	ErrLabelTaken = errors.New("label already exists (stored runs are immutable)")
	// ErrBadLabel reports a label that cannot name a stored run — caller
	// input to reject, not a store fault.
	ErrBadLabel = errors.New("invalid label")
	// ErrLabeledRuns reports a GC pass refused because it would remove
	// explicitly labeled runs; force overrides.
	ErrLabeledRuns = errors.New("would remove labeled runs")
)

// errStore wraps a low-level failure with the package prefix.
func errStore(err error) error { return fmt.Errorf("resultstore: %w", err) }

// Entry identifies one stored run.
type Entry struct {
	// SpecHash groups runs of the same normalized spec.
	SpecHash string `json:"spec_hash"`
	// Label distinguishes runs within a spec group ("run-001", "v2-g3f9a").
	Label string `json:"label"`
	// Seq is the store-wide save order; higher is newer. A save takes the
	// number after the highest it sees: in its handle's index and on the
	// journal's last line, which every save appends. Saves racing from
	// separate handles or processes can still tie; List breaks ties
	// deterministically by ref.
	Seq int `json:"seq"`
	// Name echoes the campaign's name for listings.
	Name string `json:"name,omitempty"`
	// Jobs and Cells echo the report's shape for listings.
	Jobs  int `json:"jobs"`
	Cells int `json:"cells"`
	// Mode is "exhaustive" or "sampled".
	Mode string `json:"mode"`
}

// Ref renders the entry's canonical reference, accepted by Load.
func (e Entry) Ref() string { return e.SpecHash + "/" + e.Label }

// ETag returns a strong HTTP entity tag for a response rendering this run
// in the given representation variant ("json", "csv", ...). Stored runs are
// immutable and content-addressed, so the store key pair is a valid strong
// validator: the same tag can never name different bytes. The variant is
// folded in because strong ETags are per-representation — the JSON and CSV
// renderings of one run must not share a tag.
func (e Entry) ETag(variant string) string {
	return `"` + e.SpecHash + "/" + e.Label + ":" + variant + `"`
}

// envelope is the logical on-disk document: the entry plus the full
// report. The physical document packs the report's cells through the
// columnar codec; see write and read.
type envelope struct {
	Entry
	Report *campaign.Report `json:"report"`
}

// reportHeader is the part of a report that stays plain JSON in a
// columnar envelope: the spec (diff and filter paths read it without
// touching cells), the job count and the outcome totals.
type reportHeader struct {
	Spec   campaign.Spec   `json:"spec"`
	Jobs   int             `json:"jobs"`
	Totals campaign.Totals `json:"totals"`
}

// envelopeFormat is the current physical envelope version: format 2
// carries cells in the columnar blob, format 0/absent is the legacy
// full-JSON report.
const envelopeFormat = 2

// Store is a directory of stored campaign runs. The exported methods are
// safe for concurrent use from one process; cross-process concurrency is
// handled at the filesystem (create-once envelopes, atomic renames) and
// absorbed by the index's freshness walk.
type Store struct {
	dir     string
	metrics *telemetry.StoreMetrics

	mu  sync.Mutex
	idx storeIndex
}

// SetMetrics attaches a telemetry group; saves, report loads, GC
// removals, index traffic and codec bytes are counted into it from then
// on. A nil group (the default) records nothing.
func (s *Store) SetMetrics(m *telemetry.StoreMetrics) { s.metrics = m }

// Open returns a Store rooted at dir, creating it if necessary.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("resultstore: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, errStore(err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// specHashLen is the length of a spec hash; a ref that spells out this
// many hex digits names one spec group, not a prefix of several.
const specHashLen = 12

// SpecHash returns the content address of a spec: the first 12 hex digits
// of the SHA-256 of its normalized canonical JSON, with the cosmetic Name
// blanked. Two specs that expand to the same job matrix hash alike
// regardless of spelled-out defaults — and renaming a campaign does not
// sever its diff lineage.
func SpecHash(spec campaign.Spec) string {
	norm := spec.Normalize()
	norm.Name = ""
	data, err := json.Marshal(norm)
	if err != nil {
		// A Spec is plain data; Marshal cannot fail on it.
		panic(fmt.Sprintf("resultstore: marshal spec: %v", err))
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])[:specHashLen]
}

// CheckLabel reports whether a caller-chosen label could name a stored
// run; failures wrap ErrBadLabel. Exposed so frontends (the HTTP job API)
// can reject a bad label at submission time instead of after a sweep has
// already run to completion.
func CheckLabel(label string) error { return validLabel(label) }

// validLabel accepts a label a caller may choose: a valid file name
// outside the store-assigned run-NNN namespace. Failures wrap ErrBadLabel.
func validLabel(label string) error {
	if err := validName(label); err != nil {
		return err
	}
	if AutoLabel(label) {
		// The run-NNN namespace is reserved for store-assigned labels: a
		// caller-chosen "run-100" would read as auto-assigned to GC and
		// lose its pin protection, so it can never be saved in the first
		// place.
		return fmt.Errorf("resultstore: %w: %q is reserved for auto-assigned labels (leave the label empty instead)", ErrBadLabel, label)
	}
	return nil
}

// validName accepts a label that may name a stored file, caller-chosen or
// store-assigned: it guards the label's use as a file name. Failures wrap
// ErrBadLabel.
func validName(label string) error {
	if label == "" {
		return fmt.Errorf("resultstore: %w: empty label", ErrBadLabel)
	}
	for _, r := range label {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-', r == '+':
		default:
			return fmt.Errorf("resultstore: %w: %q: only [A-Za-z0-9._+-] allowed", ErrBadLabel, label)
		}
	}
	if strings.HasPrefix(label, ".") {
		return fmt.Errorf("resultstore: %w: %q must not start with a dot", ErrBadLabel, label)
	}
	return nil
}

// Save stores a report under its spec hash. An empty label auto-assigns
// "run-NNN" from the store-wide sequence; a non-empty label that already
// exists for this spec is an error (stored runs are immutable). Saves
// racing from separate processes are safe: the final file appears
// atomically, and an auto-labeled save that loses a run-NNN race re-syncs
// the group and retries with the next free number.
//
// Save does not walk the store: it re-lists only its own group (parsing
// envelopes only when that group's names changed) and takes its sequence
// number above both the index's maximum and the seq on the journal's last
// line, which every handle's save appends. Only a store without a
// readable journal costs the full freshness walk.
func (s *Store) Save(rep *campaign.Report, label string) (Entry, error) {
	auto := label == ""
	if !auto {
		if err := validLabel(label); err != nil {
			return Entry{}, err
		}
	}
	hash := SpecHash(rep.Spec)
	if err := os.MkdirAll(filepath.Join(s.dir, hash), 0o755); err != nil {
		return Entry{}, errStore(err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	floor, err := s.saveFloorLocked(hash)
	if err != nil {
		return Entry{}, err
	}
	for attempt := 0; ; attempt++ {
		seq := max(s.nextSeqLocked(), floor+1)
		lbl := label
		if auto {
			lbl = s.freeAutoLabelLocked(hash, seq)
		}
		entry, err := s.putLocked(rep, hash, lbl, seq)
		if err == nil {
			return entry, nil
		}
		if os.IsExist(err) {
			// Another process took this label between our index view and the
			// create. For auto labels, fold that process's saves into the
			// index and take the next free number; a label the caller chose
			// is a genuine immutability violation.
			if auto {
				if attempt >= 8 {
					return Entry{}, fmt.Errorf("resultstore: %s: lost %d auto-label races in a row; store is under heavy concurrent ingest, retry the save", hash, attempt+1)
				}
				if err := s.syncGroupLocked(hash); err != nil {
					return Entry{}, err
				}
				continue
			}
			return Entry{}, fmt.Errorf("resultstore: %s/%s: %w (pick a new label)", hash, lbl, ErrLabelTaken)
		}
		return Entry{}, err
	}
}

// putLocked writes rep as the run hash/label with sequence number seq
// and notes it, axes included, in the index and its journal. A taken
// label fails with an os.IsExist error.
func (s *Store) putLocked(rep *campaign.Report, hash, label string, seq int) (Entry, error) {
	mode := "sampled"
	if rep.Spec.Exhaustive() {
		mode = campaign.ModeExhaustive
	}
	entry, size, err := s.write(filepath.Join(s.dir, hash), envelope{
		Entry: Entry{
			SpecHash: hash, Label: label, Seq: seq,
			Name: rep.Spec.Name, Jobs: rep.Jobs, Cells: len(rep.Cells), Mode: mode,
		},
		Report: rep,
	})
	if err != nil {
		return Entry{}, err
	}
	s.noteSavedLocked(indexEntry{Entry: entry, Size: size}, newAxes(rep.Spec.Protocols, rep.Spec.Graphs))
	s.metrics.Ingest()
	return entry, nil
}

// freeAutoLabelLocked returns the first free "run-NNN" label for the
// group, starting at n (the save's sequence number, so label and sequence
// agree whenever the namespace has no holes). Labels imported from
// another store can occupy numbers ahead of the local sequence; skipping
// them here keeps the auto path from colliding forever.
func (s *Store) freeAutoLabelLocked(hash string, n int) string {
	g := s.idx.groups[hash]
	for ; ; n++ {
		lbl := fmt.Sprintf("run-%03d", n)
		if g == nil {
			return lbl
		}
		if _, taken := g.Entries[lbl+".json"]; taken {
			continue
		}
		// A non-entry file squatting on the name (foreign debris) would
		// also fail the exclusive create; skip it too.
		if _, found := sort.Find(len(g.Files), func(i int) int {
			return strings.Compare(lbl+".json", g.Files[i])
		}); found {
			continue
		}
		return lbl
	}
}

// osLink is swapped by tests to exercise filesystems where hard links
// fail (EPERM on some network mounts, ENOTSUP on overlay mounts).
var osLink = os.Link

// linkUnsupported reports whether a hard-link failure means the
// filesystem cannot do hard links at all, as opposed to a per-call error.
func linkUnsupported(err error) bool {
	return errors.Is(err, syscall.EPERM) || errors.Is(err, syscall.ENOTSUP) ||
		errors.Is(err, syscall.EOPNOTSUPP) || errors.Is(err, errors.ErrUnsupported)
}

// write persists one envelope, creating <dir>/<label>.json atomically in
// the columnar format. The full document goes to a uniquely named sibling
// temp file first, then is hard-linked to its final name: the link is
// atomic (a killed save can never leave a truncated .json that bricks
// every later List) and fails with os.IsExist when the label is taken, so
// the filesystem enforces create-once even across processes. On
// filesystems without hard links the fallback reserves the final name
// with an exclusive create (same create-once guarantee), then renames the
// temp file over it (same atomicity — readers of the empty placeholder in
// the gap see a parse error, which listings already tolerate as
// in-flight). List ignores the .tmp suffix, so an orphaned temp file is
// inert either way.
func (s *Store) write(dir string, env envelope) (Entry, int64, error) {
	packed := encodeCells(env.Report.Cells)
	doc := struct {
		Entry
		Format      int          `json:"format"`
		Report      reportHeader `json:"report"`
		CellsPacked []byte       `json:"cells_packed"`
	}{
		Entry:       env.Entry,
		Format:      envelopeFormat,
		Report:      reportHeader{Spec: env.Report.Spec, Jobs: env.Report.Jobs, Totals: env.Report.Totals},
		CellsPacked: packed,
	}
	data, err := jsonindent.Marshal(doc)
	if err != nil {
		return Entry{}, 0, errStore(err)
	}
	tf, err := os.CreateTemp(dir, env.Label+".*.tmp")
	if err != nil {
		return Entry{}, 0, errStore(err)
	}
	tmp := tf.Name()
	defer os.Remove(tmp)
	if _, err := tf.Write(data); err != nil {
		tf.Close()
		return Entry{}, 0, errStore(err)
	}
	if err := tf.Close(); err != nil {
		return Entry{}, 0, errStore(err)
	}
	final := filepath.Join(dir, env.Label+".json")
	if err := osLink(tmp, final); err != nil {
		if os.IsExist(err) {
			return Entry{}, 0, err // Save distinguishes this case for retry
		}
		if !linkUnsupported(err) {
			return Entry{}, 0, errStore(err)
		}
		ph, err := os.OpenFile(final, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err != nil {
			if os.IsExist(err) {
				return Entry{}, 0, err
			}
			return Entry{}, 0, errStore(err)
		}
		ph.Close()
		if err := os.Rename(tmp, final); err != nil {
			os.Remove(final) // release the reserved name
			return Entry{}, 0, errStore(err)
		}
	}
	s.metrics.CodecEncoded(len(packed))
	return env.Entry, int64(len(data)), nil
}

// List returns every stored entry, oldest first (by sequence, then by
// ref for entries predating the sequence).
//
// List answers from the entry index after a freshness walk that reads
// directory metadata, not envelopes; only groups whose contents actually
// changed are re-parsed. The result is still a read snapshot of a store
// that may be mutated underneath it by a concurrent `wbcampaign run
// -store` or an external sync: files that vanish between walk and read,
// in-flight .tmp files, stray non-JSON files and envelopes that do not
// (yet) parse as complete entries are all skipped rather than failing the
// whole listing. Writes land atomically, so anything skipped is either
// foreign to the store or about to reappear on the next listing — one bad
// or half-copied file can never brick every later List, Save or serve.
// Only those mutation shapes are tolerated: a file that exists and parses
// but cannot be read (permissions, I/O errors) still fails the listing,
// so a genuinely broken store stays loud instead of shrinking silently.
func (s *Store) List() ([]Entry, error) { return s.ListFiltered("", "") }

// ListFiltered returns, in List order and with List's freshness walk, the
// stored runs whose spec sweeps protocol and graph; an empty argument
// matches any run, so ListFiltered("", "") is List. The index records
// each spec group's protocols and graphs, so filtering reads no envelope.
func (s *Store) ListFiltered(protocol, graph string) ([]Entry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.refreshLocked(); err != nil {
		return nil, err
	}
	return s.listLocked(protocol, graph), nil
}

// isParseError reports whether err is a JSON decoding failure — what a
// half-copied envelope produces — as opposed to an I/O failure.
func isParseError(err error) bool {
	var syn *json.SyntaxError
	var typ *json.UnmarshalTypeError
	return errors.As(err, &syn) || errors.As(err, &typ) ||
		errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF)
}

// readEntry parses just the metadata of a stored envelope — what the
// index keeps per run, and its spec's axes — without materializing the
// report's cell tree.
func (s *Store) readEntry(path string) (Entry, axes, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Entry{}, axes{}, errStore(err)
	}
	var doc struct {
		Entry
		Report struct {
			Spec axes `json:"spec"`
		} `json:"report"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return Entry{}, axes{}, fmt.Errorf("resultstore: parsing %s: %w", path, err)
	}
	return doc.Entry, newAxes(doc.Report.Spec.Protocols, doc.Report.Spec.Graphs), nil
}

// read parses one stored envelope, unpacking columnar cells when present
// and falling back to the legacy full-JSON report when not.
func (s *Store) read(path string) (*envelope, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, errStore(err)
	}
	var doc struct {
		envelope
		CellsPacked []byte `json:"cells_packed"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("resultstore: parsing %s: %w", path, err)
	}
	if doc.Report == nil {
		return nil, fmt.Errorf("resultstore: %s holds no report", path)
	}
	if len(doc.CellsPacked) > 0 {
		cells, err := decodeCells(doc.CellsPacked)
		if err != nil {
			return nil, fmt.Errorf("resultstore: %s: %w", path, err)
		}
		doc.Report.Cells = cells
		s.metrics.CodecDecoded(len(doc.CellsPacked))
	}
	return &doc.envelope, nil
}

// Load resolves a reference to a stored run and reads its report.
func (s *Store) Load(ref string) (*campaign.Report, Entry, error) {
	e, err := s.Resolve(ref)
	if err != nil {
		return nil, Entry{}, err
	}
	rep, err := s.LoadEntry(e)
	if err != nil {
		return nil, Entry{}, err
	}
	return rep, e, nil
}

// Resolve maps a reference to a stored entry without reading its report —
// cheap enough for HTTP handlers that may answer from a cache or a 304
// without ever materializing cells. Accepted forms:
//
//	<hash>/<label>   exact
//	<label>          unique label across the whole store
//	<hash>           the newest run in that spec group
//
// Hashes may be abbreviated to any unique prefix of at least 4 hex
// digits; shorter prefixes are rejected in both hash forms. A miss wraps
// ErrNotFound.
//
// The exact form with the hash spelled out in full is answered by the
// keyed GetEntry, which reads one envelope; the other forms scan the
// listing and so pay List's freshness walk.
func (s *Store) Resolve(ref string) (Entry, error) {
	if hash, label, exact := strings.Cut(ref, "/"); exact && len(hash) == specHashLen {
		// A full hash names one group, and a file counts as a run only at
		// its own key, so the keyed read's hit or miss is the scan's answer.
		// Only a file that fails to read or parse (a save in flight) is
		// left to the scan.
		e, err := s.GetEntry(hash, label)
		if err == nil {
			return e, nil
		}
		if errors.Is(err, ErrNotFound) {
			return Entry{}, errNoRun(ref)
		}
	}
	return s.resolveScan(ref)
}

// errNoRun is Resolve's miss.
func errNoRun(ref string) error {
	return fmt.Errorf("resultstore: %w: %q (use `list` to see refs)", ErrNotFound, ref)
}

// resolveScan resolves ref, in any of Resolve's forms, by scanning the
// listing.
func (s *Store) resolveScan(ref string) (Entry, error) {
	hash, label, exact := strings.Cut(ref, "/")
	if exact && len(hash) < 4 {
		return Entry{}, fmt.Errorf("resultstore: %w: %q (hash prefix must be at least 4 hex digits)", ErrNotFound, ref)
	}
	entries, err := s.List()
	if err != nil {
		return Entry{}, err
	}
	var matches []Entry
	if exact {
		for _, e := range entries {
			if e.Label == label && strings.HasPrefix(e.SpecHash, hash) {
				matches = append(matches, e)
			}
		}
	} else {
		for _, e := range entries {
			if e.Label == ref {
				matches = append(matches, e)
			}
		}
		if len(matches) == 0 && len(ref) >= 4 {
			// Newest run of the spec group named by a hash prefix — but only
			// if the prefix names exactly one group; two groups sharing the
			// prefix must error rather than silently diff the wrong campaign.
			newest := map[string]Entry{}
			for _, e := range entries {
				if strings.HasPrefix(e.SpecHash, ref) {
					if best, ok := newest[e.SpecHash]; !ok || e.Seq > best.Seq {
						newest[e.SpecHash] = e
					}
				}
			}
			if len(newest) > 1 {
				hashes := make([]string, 0, len(newest))
				for h := range newest {
					hashes = append(hashes, h)
				}
				sort.Strings(hashes)
				return Entry{}, fmt.Errorf("resultstore: hash prefix %q is ambiguous: %s", ref, strings.Join(hashes, ", "))
			}
			for _, e := range newest {
				matches = append(matches, e)
			}
		}
	}
	switch len(matches) {
	case 0:
		return Entry{}, errNoRun(ref)
	case 1:
		return matches[0], nil
	default:
		refs := make([]string, len(matches))
		for i, e := range matches {
			refs[i] = e.Ref()
		}
		return Entry{}, fmt.Errorf("resultstore: %q is ambiguous: %s", ref, strings.Join(refs, ", "))
	}
}

// GetEntry is the keyed O(1) lookup: the exact spec hash and label of one
// stored run — a caller-chosen label or a store-assigned "run-NNN" —
// returning its metadata from that one envelope, without the freshness
// walk that List and Resolve's scan forms pay. A miss wraps ErrNotFound,
// and so does a file at the key whose envelope names another run (one
// copied in from another group or under another name). Both key parts are
// validated before touching the filesystem, so hostile values (an HTTP
// path segment aiming "../" at the host) cannot escape the store
// directory.
func (s *Store) GetEntry(specHash, label string) (Entry, error) {
	if err := validKey(specHash, label); err != nil {
		// A key that could never have been stored is by definition absent;
		// reporting it as not-found keeps hostile input off the error path
		// that suggests store corruption.
		return Entry{}, fmt.Errorf("resultstore: %w: %v", ErrNotFound, err)
	}
	e, _, err := s.readEntry(filepath.Join(s.dir, specHash, label+".json"))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return Entry{}, fmt.Errorf("resultstore: %w: %s/%s", ErrNotFound, specHash, label)
		}
		return Entry{}, err
	}
	if e.SpecHash != specHash || e.Label != label {
		return Entry{}, fmt.Errorf("resultstore: %w: %s/%s", ErrNotFound, specHash, label)
	}
	return e, nil
}

// validKey guards keyed lookups fed from untrusted input: a lowercase hex
// hash and a label that may name a stored file.
func validKey(specHash, label string) error {
	if specHash == "" {
		return fmt.Errorf("resultstore: empty spec hash")
	}
	for _, r := range specHash {
		if (r < '0' || r > '9') && (r < 'a' || r > 'f') {
			return fmt.Errorf("resultstore: spec hash %q is not lowercase hex", specHash)
		}
	}
	return validName(label)
}

// LoadEntry reads the report of an already-resolved entry directly,
// without rescanning the store the way ref resolution must.
func (s *Store) LoadEntry(e Entry) (*campaign.Report, error) {
	env, err := s.read(filepath.Join(s.dir, e.SpecHash, e.Label+".json"))
	if err != nil {
		return nil, err
	}
	s.metrics.Load()
	return env.Report, nil
}

// LoadSpec reads only the spec of a stored run — what listing filters
// (which protocols / graph families did this campaign sweep?) need —
// without retaining the report's cell tree in memory.
func (s *Store) LoadSpec(e Entry) (campaign.Spec, error) {
	data, err := os.ReadFile(filepath.Join(s.dir, e.SpecHash, e.Label+".json"))
	if err != nil {
		return campaign.Spec{}, errStore(err)
	}
	var doc struct {
		Report struct {
			Spec campaign.Spec `json:"spec"`
		} `json:"report"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return campaign.Spec{}, fmt.Errorf("resultstore: parsing %s: %w", e.Ref(), err)
	}
	return doc.Report.Spec, nil
}

// Stats describes the store's size for health and metrics reporting.
type Stats struct {
	// Specs counts distinct spec groups, Reports the stored runs.
	Specs   int `json:"specs"`
	Reports int `json:"reports"`
	// Bytes is the total on-disk size of the stored envelopes.
	Bytes int64 `json:"bytes"`
}

// Stat sizes the store from the entry index, so it counts exactly what
// List lists: foreign JSON files, debris and half-written envelopes are
// not reports, and a group holding only debris is not a spec.
func (s *Store) Stat() (Stats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var st Stats
	if err := s.refreshLocked(); err != nil {
		return st, err
	}
	for _, g := range s.idx.groups {
		if len(g.Entries) == 0 {
			continue
		}
		st.Specs++
		st.Reports += len(g.Entries)
		for _, ie := range g.Entries {
			st.Bytes += ie.Size
		}
	}
	return st, nil
}

// GCResult describes what a garbage-collection pass removed and kept.
type GCResult struct {
	// Removed lists the pruned runs, oldest first.
	Removed []Entry
	// Kept counts the runs still stored after the pass.
	Kept int
}

// AutoLabel reports whether label is a store-assigned sequence label
// ("run-001") rather than one the caller chose. GC treats caller-chosen
// labels as pinned.
func AutoLabel(label string) bool {
	rest, ok := strings.CutPrefix(label, "run-")
	if !ok || len(rest) < 3 {
		return false
	}
	for _, r := range rest {
		if r < '0' || r > '9' {
			return false
		}
	}
	return true
}

// GC prunes all but the newest keep runs of every spec group, newest by
// save sequence, updating the entry index transactionally with the
// removals. Runs under a caller-chosen label ("v1.2-3-gabc123") are
// pinned: if any would be removed, GC refuses the whole pass with
// ErrLabeledRuns — naming them — unless force is set. Auto-labeled runs
// ("run-NNN") are always fair game. Files already gone when removal
// reaches them (a racing GC) are skipped, not failed.
func (s *Store) GC(keep int, force bool) (GCResult, error) {
	if keep < 1 {
		return GCResult{}, fmt.Errorf("resultstore: gc keep must be ≥ 1, got %d", keep)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.refreshLocked(); err != nil {
		return GCResult{}, err
	}
	entries := s.listLocked("", "")
	perSpec := map[string]int{}
	for _, e := range entries {
		perSpec[e.SpecHash]++
	}
	// entries is oldest-first, so the first (count-keep) of each group are
	// the removal candidates; walking in List order keeps Removed sorted.
	var victims []Entry
	var pinned []string
	seen := map[string]int{}
	for _, e := range entries {
		seen[e.SpecHash]++
		if seen[e.SpecHash] > perSpec[e.SpecHash]-keep {
			continue // within the newest keep of its group
		}
		if !AutoLabel(e.Label) {
			pinned = append(pinned, e.Ref())
		}
		victims = append(victims, e)
	}
	if len(pinned) > 0 && !force {
		return GCResult{}, fmt.Errorf("resultstore: %w: %s (re-run with force to remove)",
			ErrLabeledRuns, strings.Join(pinned, ", "))
	}
	res := GCResult{Kept: len(entries) - len(victims)}
	for _, e := range victims {
		path := filepath.Join(s.dir, e.SpecHash, e.Label+".json")
		if err := os.Remove(path); err != nil {
			if os.IsNotExist(err) {
				s.dropEntryLocked(e)
				continue // a racing GC got there first
			}
			s.persistIndexLocked()
			return res, errStore(err)
		}
		res.Removed = append(res.Removed, e)
		s.dropEntryLocked(e)
		// Drop the group directory once empty; a non-empty directory (a
		// racing save, an orphaned temp file) just stays.
		if os.Remove(filepath.Join(s.dir, e.SpecHash)) == nil {
			delete(s.idx.groups, e.SpecHash)
		}
	}
	s.persistIndexLocked()
	s.metrics.GCRemoved(len(res.Removed))
	return res, nil
}

// dropEntryLocked removes one run from the in-memory index.
func (s *Store) dropEntryLocked(e Entry) {
	g := s.idx.groups[e.SpecHash]
	if g == nil {
		return
	}
	file := e.Label + ".json"
	delete(g.Entries, file)
	if i := sort.SearchStrings(g.Files, file); i < len(g.Files) && g.Files[i] == file {
		g.Files = append(g.Files[:i], g.Files[i+1:]...)
	}
	g.mtime = zeroTime // re-verify the group's dirents on the next walk
	s.idx.sorted = nil
}

// LatestPair returns the two newest runs that share the spec hash of the
// newest run overall — the natural operands of a no-argument diff. With an
// empty store or a single run of the newest spec it wraps ErrNeedTwoRuns,
// which callers should treat as "nothing to compare yet", not a failure.
func (s *Store) LatestPair() (old, latest Entry, err error) {
	entries, err := s.List()
	if err != nil {
		return Entry{}, Entry{}, err
	}
	if len(entries) == 0 {
		return Entry{}, Entry{}, fmt.Errorf("resultstore: store is empty: %w", ErrNeedTwoRuns)
	}
	latest = entries[len(entries)-1]
	for i := len(entries) - 2; i >= 0; i-- {
		if entries[i].SpecHash == latest.SpecHash {
			return entries[i], latest, nil
		}
	}
	return Entry{}, Entry{}, fmt.Errorf("resultstore: only one stored run of spec %s (%s): %w",
		latest.SpecHash, latest.Label, ErrNeedTwoRuns)
}
