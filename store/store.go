// Package store is the public SDK over the persistent campaign result
// store: content-addressed storage of reports by normalized-spec hash and
// label, cross-run diffing, and garbage collection. It is the stable
// facade over repro/internal/resultstore; `wbcampaign run -store`, the
// wbserve HTTP surface and library consumers share this one API.
//
// A Store is a plain directory of JSON envelopes
// (<dir>/<spec-hash>/<label>.json), safe to inspect, sync and commit.
// Stored runs are immutable; saves land atomically, so readers are safe
// against concurrent writers. Inside an envelope the per-cell results are
// packed in a compact varint-columnar blob, and listings are served from
// a persistent entry index (<dir>/index.json) — both internal formats
// behind the unchanged JSON wire surface: every load decodes to the
// exact report that was saved, and a stale or corrupt index is rebuilt
// from the envelopes. Export/Import move whole stores as portable
// JSON-lines archives.
package store

import (
	"repro/campaign"
	internal "repro/internal/resultstore"
)

// Store is a directory of stored campaign runs. All methods of the
// underlying store — List, ListFiltered, Save, Load, Resolve, GetEntry,
// LoadEntry, LoadSpec, LatestPair, Stat, GC, Export, Import — are part
// of the public surface.
type Store = internal.Store

// Entry identifies one stored run: spec hash, label, save sequence and
// listing metadata.
type Entry = internal.Entry

// Stats describes a store's size for health and metrics reporting.
type Stats = internal.Stats

// GCResult describes what a garbage-collection pass removed and kept.
type GCResult = internal.GCResult

// ImportResult tallies an Import pass: runs added and runs skipped
// because their (spec, label) already existed in the destination.
type ImportResult = internal.ImportResult

// Diff is the cell-by-cell comparison of two stored reports, with text
// and JSON renderings.
type Diff = internal.Diff

// CellDelta is one differing cell of a Diff.
type CellDelta = internal.CellDelta

// FieldDelta is one differing field of a cell.
type FieldDelta = internal.FieldDelta

// Sentinel errors, matchable with errors.Is.
var (
	// ErrNotFound reports that no stored run matches a lookup or ref.
	ErrNotFound = internal.ErrNotFound
	// ErrNeedTwoRuns reports that a spec has fewer than two stored runs,
	// so there is nothing to diff — a state, not a failure.
	ErrNeedTwoRuns = internal.ErrNeedTwoRuns
	// ErrLabelTaken reports a save under an existing label.
	ErrLabelTaken = internal.ErrLabelTaken
	// ErrBadLabel reports a label that cannot name a stored run.
	ErrBadLabel = internal.ErrBadLabel
	// ErrLabeledRuns reports a GC pass that would remove explicitly
	// labeled runs without force.
	ErrLabeledRuns = internal.ErrLabeledRuns
)

// Open returns a Store rooted at dir, creating it if necessary.
func Open(dir string) (*Store, error) { return internal.Open(dir) }

// CheckLabel reports whether a caller-chosen label could name a stored
// run (failures wrap ErrBadLabel) — useful for rejecting a bad label
// before a long sweep runs, the way the HTTP job API does at submission.
// The auto-assigned "run-NNN" namespace is reserved: leave labels empty
// to use it.
func CheckLabel(label string) error { return internal.CheckLabel(label) }

// AutoLabel reports whether label is a store-assigned sequence label
// ("run-001") rather than one a caller chose. GC treats caller-chosen
// labels as pinned.
func AutoLabel(label string) bool { return internal.AutoLabel(label) }

// SpecHash returns the content address of a campaign spec: the first 12
// hex digits of the SHA-256 of its normalized canonical JSON.
func SpecHash(spec campaign.Spec) string { return internal.SpecHash(spec) }

// DiffReports compares two reports cell by cell.
func DiffReports(old, new *campaign.Report) *Diff { return internal.DiffReports(old, new) }
