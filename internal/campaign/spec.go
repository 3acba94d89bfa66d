// Package campaign turns the repo from a one-run-at-a-time tool into a
// batch simulation engine: a declarative Spec — protocol set × graph
// family × size sweep × adversary set × model override × seed range — is
// expanded into a job matrix and executed by a sharded worker pool with
// per-worker reusable engine state (engine.Runner). Per-cell statistics
// (success/deadlock/failure counts, round and board-bit distributions) are
// aggregated into a Report with deterministic JSON and CSV emitters: the
// same spec produces byte-identical reports regardless of worker count,
// because every job's seed is derived from its coordinates rather than
// from scheduling order.
package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"

	"repro/internal/registry"
)

// Spec declares a campaign. Normalize fills the two fields whose zero
// values are meaningless — Seeds=0 becomes 1 and an empty Models list
// becomes ["native"]; K and P pass through verbatim (p=0 really sweeps
// edgeless random graphs).
type Spec struct {
	// Name labels the campaign in reports.
	Name string `json:"name,omitempty"`
	// Protocols, Graphs and Adversaries are registry names (adversaries may
	// carry colon-arguments such as "stubborn:1"). Adversaries must be empty
	// in exhaustive mode, which enumerates every schedule instead.
	Protocols   []string `json:"protocols"`
	Graphs      []string `json:"graphs"`
	Adversaries []string `json:"adversaries,omitempty"`
	// Script is an inline scenario-DSL writer-choice script, referenced by
	// the bare "script" adversary name; it exists so a long script need not
	// be squeezed into a colon-argument. Exactly like a "script:<expr>"
	// adversary string, the source participates in the normalized spec
	// hash. Validation rejects a Script no adversary references, so a stray
	// field can never silently change a spec's identity.
	Script string `json:"script,omitempty"`
	// Sizes is the node-count sweep.
	Sizes []int `json:"sizes"`
	// Models optionally forces each run under a model ("SIMASYNC", "SIMSYNC",
	// "ASYNC", "SYNC"); "native" (or "") keeps the protocol's declared model.
	Models []string `json:"models,omitempty"`
	// Seeds is the number of trials per cell; trial t of a cell gets a seed
	// derived deterministically from (cell coordinates, t, BaseSeed).
	Seeds int `json:"seeds,omitempty"`
	// BaseSeed shifts every derived seed, giving a fresh but reproducible
	// batch of random graphs and adversary choices.
	BaseSeed int64 `json:"base_seed,omitempty"`
	// K is the degeneracy bound / MIS root / subgraph prefix parameter.
	K int `json:"k,omitempty"`
	// P is the edge probability for random graph families.
	P float64 `json:"p,omitempty"`
	// MaxRounds bounds each run; 0 means the engine default (4n+16).
	MaxRounds int `json:"max_rounds,omitempty"`
	// Mode selects how each cell is executed. "" (or "sampled") runs one
	// adversary per cell — the classic path. "exhaustive" enumerates every
	// adversarial schedule per cell via engine.RunAllMemo, making the paper's
	// ∀-adversary quantifier literal for small n: the Adversaries axis must
	// then be empty (all schedules run, no adversary chooses), and the cell's
	// round/bit distributions range over schedules instead of trials.
	Mode string `json:"mode,omitempty"`
	// MaxSteps bounds the total simulated writes per exhaustive job
	// (the enumeration budget); 0 means DefaultMaxSteps. Exceeding it marks
	// the trial Failed rather than hanging the campaign. Ignored when sampled.
	MaxSteps int `json:"max_steps,omitempty"`
	// Memoize stays on the wire so spec hashes do not move: Normalize fills
	// in true for exhaustive specs, and Validate rejects false, because
	// exhaustive cells always run the memoized walk (engine.RunAllMemo):
	// the schedule tree collapses into a DAG over canonical (board,
	// node-state, pending-message) configurations with exact schedule
	// multiplicities, so every tally is bit-identical to the plain
	// enumeration while MaxSteps is spent only on unique writes. Reports
	// stored with memoize:false by the retired tree-walk strategy still
	// load, list, render and diff. Only meaningful in exhaustive mode.
	Memoize *bool `json:"memoize,omitempty"`
	// Cells, when set, restricts execution to the half-open cell-index
	// range [Start, End) of the full matrix — the shard contract of the
	// distributed fabric, which submits each range as an ordinary job.
	// Cell indices in the report and streams are rebased to the range
	// (index 0 is the range's first cell), but every seed still derives
	// from the job's absolute coordinates, so a range run's cells are
	// byte-identical to the corresponding slice of a full run.
	Cells *CellRange `json:"cells,omitempty"`
}

// CellRange is a half-open [Start, End) slice of a spec's cell matrix in
// matrix order (protocol → graph → size → adversary → model). Start==End
// is a valid empty range.
type CellRange struct {
	Start int `json:"start"`
	End   int `json:"end"`
}

// ModeExhaustive is the Spec.Mode value requesting full schedule
// enumeration; the empty string (or "sampled") selects sampled execution.
const ModeExhaustive = "exhaustive"

// DefaultMaxSteps is the per-job engine.RunAllMemo write budget used when an
// exhaustive spec leaves MaxSteps at zero.
const DefaultMaxSteps = 200_000

// exhaustiveAdversary is the pseudo adversary label exhaustive cells carry
// in jobs, cells and reports, where a sampled cell names a registry entry.
const exhaustiveAdversary = "exhaustive"

// Exhaustive reports whether the spec requests full schedule enumeration.
func (s Spec) Exhaustive() bool { return s.Mode == ModeExhaustive }

// Normalize returns the spec with defaults filled in, so that reports echo
// the exact configuration that ran.
func (s Spec) Normalize() Spec {
	if s.Seeds == 0 {
		s.Seeds = 1
	}
	if s.Mode == "sampled" {
		// Canonicalize the explicit spelling so equivalent specs hash alike.
		s.Mode = ""
	}
	if s.Exhaustive() && s.MaxSteps == 0 {
		s.MaxSteps = DefaultMaxSteps
	}
	if s.Exhaustive() && s.Memoize == nil {
		memoize := true
		s.Memoize = &memoize
	}
	if len(s.Models) == 0 {
		s.Models = []string{"native"}
	} else {
		// Copy before rewriting: Spec is passed by value but the slice
		// backing array is shared with the caller.
		models := make([]string, len(s.Models))
		for i, m := range s.Models {
			if m == "" {
				m = "native"
			}
			models[i] = m
		}
		s.Models = models
	}
	return s
}

// Validate checks the normalized spec: non-empty axes, positive sizes and
// seeds, and every name resolvable in the registry (including a dry
// construction of each component, so typos fail before any job runs, with
// the registry's did-you-mean message). Every error names the offending
// spec field so a bad JSON file is fixable from the message alone.
func (s Spec) Validate() error {
	if s.Mode != "" && s.Mode != ModeExhaustive {
		return fmt.Errorf(`campaign: mode %q is not "sampled" or "exhaustive"`, s.Mode)
	}
	if len(s.Protocols) == 0 {
		return fmt.Errorf("campaign: protocols: at least one is required")
	}
	if len(s.Graphs) == 0 {
		return fmt.Errorf("campaign: graphs: at least one is required")
	}
	if len(s.Sizes) == 0 {
		return fmt.Errorf("campaign: sizes: at least one is required")
	}
	if s.Exhaustive() {
		if len(s.Adversaries) > 0 {
			return fmt.Errorf("campaign: adversaries: exhaustive mode enumerates every schedule; remove the adversaries axis")
		}
		if s.Script != "" {
			return fmt.Errorf("campaign: script: exhaustive mode enumerates every schedule; no adversary script can choose")
		}
		if s.MaxSteps < 1 {
			return fmt.Errorf("campaign: max_steps must be ≥ 1, got %d", s.MaxSteps)
		}
		if s.Memoize != nil && !*s.Memoize {
			return fmt.Errorf("campaign: memoize: false is no longer supported; exhaustive cells always run the memoized walk (remove the field)")
		}
	} else {
		if len(s.Adversaries) == 0 {
			return fmt.Errorf("campaign: adversaries: at least one is required (or set mode to %q)", ModeExhaustive)
		}
		if s.MaxSteps != 0 {
			return fmt.Errorf("campaign: max_steps is only meaningful in exhaustive mode")
		}
		if s.Memoize != nil {
			return fmt.Errorf("campaign: memoize is only meaningful in exhaustive mode")
		}
		if s.Script != "" {
			referenced := false
			for _, name := range s.Adversaries {
				if name == "script" {
					referenced = true
					break
				}
			}
			if !referenced {
				return fmt.Errorf(`campaign: script: set, but no adversary is the bare "script" name that would run it`)
			}
		}
	}
	if s.Seeds < 1 {
		return fmt.Errorf("campaign: seeds must be ≥ 1, got %d", s.Seeds)
	}
	for i, n := range s.Sizes {
		if n < 1 {
			return fmt.Errorf("campaign: sizes[%d] = %d is not a positive node count", i, n)
		}
	}
	if s.MaxRounds < 0 {
		return fmt.Errorf("campaign: max_rounds must be ≥ 0, got %d", s.MaxRounds)
	}
	if c := s.Cells; c != nil {
		full := s.fullNumCells()
		switch {
		case c.Start < 0:
			return fmt.Errorf("campaign: cells: start must be ≥ 0, got %d", c.Start)
		case c.End < c.Start:
			return fmt.Errorf("campaign: cells: end %d is before start %d", c.End, c.Start)
		case c.End > full:
			return fmt.Errorf("campaign: cells: end %d exceeds the spec's %d cells", c.End, full)
		}
	}
	// The dry construction exists to resolve names and parse arguments, not
	// to build at scale: clamp the probe size so validating a huge sweep
	// doesn't allocate a huge graph.
	probeN := s.Sizes[0]
	if probeN > 64 {
		probeN = 64
	}
	params := registry.Params{N: probeN, K: s.K, P: s.P, Seed: 1, Script: s.Script}
	for _, name := range s.Protocols {
		if err := probe("protocols", func() error {
			_, err := registry.NewProtocol(name, params)
			return err
		}); err != nil {
			return err
		}
	}
	for _, name := range s.Graphs {
		if err := probe("graphs", func() error {
			_, err := registry.NewGraph(name, params, nil)
			return err
		}); err != nil {
			return err
		}
	}
	for _, name := range s.Adversaries {
		if err := probe("adversaries", func() error {
			_, err := registry.NewAdversary(name, params)
			return err
		}); err != nil {
			return err
		}
	}
	for _, m := range s.Models {
		if _, err := registry.ParseModel(m); err != nil {
			return fmt.Errorf("campaign: models: %w", err)
		}
	}
	return nil
}

// probe runs one dry construction, converting both its error (a graph
// generator's rejected size among them, e.g. "cycle needs n ≥ 3") and any
// panic into an error naming the spec field.
func probe(field string, build func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("campaign: %s: %v", field, r)
		}
	}()
	if e := build(); e != nil {
		return fmt.Errorf("campaign: %s: %w", field, e)
	}
	return nil
}

// LoadSpec reads a Spec from a JSON file, rejecting unknown fields so that
// a misspelled key fails loudly instead of silently sweeping nothing.
func LoadSpec(path string) (Spec, error) {
	var s Spec
	data, err := os.ReadFile(path)
	if err != nil {
		return s, fmt.Errorf("campaign: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return s, fmt.Errorf("campaign: parsing %s: %w", path, err)
	}
	return s, nil
}

// Job is one simulation: a cell coordinate plus a trial index and the seed
// derived from them.
type Job struct {
	Protocol  string
	Graph     string
	Adversary string
	Model     string // "native" or a model name
	N         int
	Trial     int
	Seed      int64
	Cell      int // index into the report's cell list
}

// adversaryAxis is the adversary sweep dimension: the spec's list when
// sampled, the single pseudo entry when exhaustive (every cell enumerates
// all schedules, so there is nothing to sweep).
func (s Spec) adversaryAxis() []string {
	if s.Exhaustive() {
		return []string{exhaustiveAdversary}
	}
	return s.Adversaries
}

// Expand flattens the normalized spec into its job matrix, in the fixed
// order protocol → graph → size → adversary → model → trial. Cell indices
// follow the same order, so aggregation is position-based and independent
// of execution order. A Cells range keeps only its slice of the matrix,
// with cell indices rebased so the range's first cell is 0; job seeds are
// untouched because they derive from coordinates, not indices.
func (s Spec) Expand() []Job {
	advs := s.adversaryAxis()
	start, end := 0, s.fullNumCells()
	if s.Cells != nil {
		start, end = s.Cells.Start, s.Cells.End
	}
	jobs := make([]Job, 0, (end-start)*s.Seeds)
	cell := 0
	for _, proto := range s.Protocols {
		for _, g := range s.Graphs {
			for _, n := range s.Sizes {
				for _, adv := range advs {
					for _, model := range s.Models {
						if cell >= start && cell < end {
							for t := 0; t < s.Seeds; t++ {
								jobs = append(jobs, Job{
									Protocol: proto, Graph: g, Adversary: adv, Model: model,
									N: n, Trial: t, Cell: cell - start,
									Seed: deriveSeed(s.BaseSeed, proto, g, adv, model, n, t),
								})
							}
						}
						cell++
					}
				}
			}
		}
	}
	return jobs
}

// fullNumCells is the cell count of the whole matrix, ignoring any Cells
// range.
func (s Spec) fullNumCells() int {
	return len(s.Protocols) * len(s.Graphs) * len(s.Sizes) * len(s.adversaryAxis()) * len(s.Models)
}

// NumCells returns the number of aggregation cells the spec expands to:
// the whole matrix, or the Cells range's length when one is set.
func (s Spec) NumCells() int {
	if s.Cells != nil {
		return s.Cells.End - s.Cells.Start
	}
	return s.fullNumCells()
}

// deriveSeed maps a job's coordinates to a seed, deterministically and
// independently of worker count or execution order: an FNV-64a hash of the
// coordinate tuple, finished by a splitmix64 round so nearby coordinates
// land far apart, xor-shifted by the campaign's base seed.
func deriveSeed(base int64, proto, g, adv, model string, n, trial int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%s|%s|%s|%d|%d", proto, g, adv, model, n, trial)
	return finalize(h.Sum64() ^ uint64(base)*0x9E3779B97F4A7C15)
}

// subSeed decorrelates the per-component PRNG streams within one job: the
// graph uses the job seed directly, while randomized protocols and
// adversaries get salted derivatives so they never replay the stream that
// drew the graph.
func subSeed(seed int64, salt uint64) int64 {
	return finalize(uint64(seed) ^ salt)
}

// finalize is the splitmix64 finalizer, folded to a positive non-zero
// int64 for readability in traces.
func finalize(x uint64) int64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	seed := int64(x &^ (1 << 63))
	if seed == 0 {
		seed = 1
	}
	return seed
}
