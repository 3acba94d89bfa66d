package resultstore

// export.go moves whole stores across machines and filesystems as a
// single JSON-lines stream: one wire envelope (entry metadata + the full
// report, cells as plain JSON) per line. The stream deliberately uses the
// wire format rather than the physical columnar one, so an archive made
// by any store version imports into any other — the columnar blob stays
// an internal detail of the directory layout.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/campaign"
)

// wireEnvelope is one archive line: the stored entry plus its report in
// full JSON.
type wireEnvelope struct {
	Entry
	Report *campaign.Report `json:"report"`
}

// Export writes every stored run to w as JSON lines, oldest first, and
// returns how many runs it wrote. The archive is self-contained: Import
// rebuilds hashes and sequence numbers from the reports, so a truncated
// tail loses only the newest runs, never the stream's integrity.
func (s *Store) Export(w io.Writer) (int, error) {
	entries, err := s.List()
	if err != nil {
		return 0, err
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i, e := range entries {
		rep, err := s.LoadEntry(e)
		if err != nil {
			return i, err
		}
		if err := enc.Encode(wireEnvelope{Entry: e, Report: rep}); err != nil {
			return i, errStore(err)
		}
	}
	if err := bw.Flush(); err != nil {
		return len(entries), errStore(err)
	}
	return len(entries), nil
}

// ImportResult tallies one Import pass.
type ImportResult struct {
	// Added counts runs written into the store, Skipped the archive runs
	// whose (spec, label) already existed here.
	Added, Skipped int
}

// Import reads an Export archive from r and stores every run not already
// present, preserving labels but assigning fresh local sequence numbers
// in archive order (sequences are store-local save order, not portable
// identity). A run whose spec hash and label both exist locally is
// skipped, so re-importing the same archive is idempotent; a run that
// fails to validate aborts the import with what was already added
// reported. Imported auto labels ("run-NNN") keep their names — later
// local auto saves skip over them.
func (s *Store) Import(r io.Reader) (ImportResult, error) {
	var res ImportResult
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 256*1024*1024)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.refreshLocked(); err != nil {
		return res, err
	}
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var we wireEnvelope
		if err := json.Unmarshal(sc.Bytes(), &we); err != nil {
			return res, fmt.Errorf("resultstore: import line %d: %w", line, err)
		}
		if we.Report == nil {
			return res, fmt.Errorf("resultstore: import line %d: no report", line)
		}
		if we.Label == "" {
			return res, fmt.Errorf("resultstore: import line %d: no label", line)
		}
		if err := validName(we.Label); err != nil {
			return res, fmt.Errorf("resultstore: import line %d: %w", line, err)
		}
		// Address by the report's own spec, not the archive's claim: hashes
		// must stay consistent with this store's normalization.
		hash := SpecHash(we.Report.Spec)
		if g := s.idx.groups[hash]; g != nil {
			if _, ok := g.Entries[we.Label+".json"]; ok {
				res.Skipped++
				continue
			}
		}
		if err := os.MkdirAll(filepath.Join(s.dir, hash), 0o755); err != nil {
			return res, errStore(err)
		}
		if _, err := s.putLocked(we.Report, hash, we.Label, s.nextSeqLocked()); err != nil {
			if os.IsExist(err) {
				// A concurrent save landed this label after our refresh; the
				// run exists, which is all idempotence promises.
				res.Skipped++
				continue
			}
			return res, err
		}
		res.Added++
	}
	if err := sc.Err(); err != nil {
		return res, fmt.Errorf("resultstore: import line %d: %w", line+1, err)
	}
	return res, nil
}
