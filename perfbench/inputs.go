package main

import (
	"bytes"
	"embed"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/adversary"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/registry"
)

// specs holds the frozen workload inputs. Each file names the example it
// derives from and what it changes, so a later edit of examples/ cannot
// move the benchmark.
//
//go:embed specs/*.json
var specs embed.FS

// frozenSpec is the on-disk shape of a file under specs/.
type frozenSpec struct {
	DerivesFrom string        `json:"derives_from"`
	Changes     string        `json:"changes"`
	Spec        campaign.Spec `json:"spec"`
}

// loadSpec parses, normalizes and validates one frozen spec.
func loadSpec(name string) (campaign.Spec, error) {
	data, err := specs.ReadFile("specs/" + name)
	if err != nil {
		return campaign.Spec{}, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var f frozenSpec
	if err := dec.Decode(&f); err != nil {
		return campaign.Spec{}, fmt.Errorf("%s: %w", name, err)
	}
	spec := f.Spec.Normalize()
	if err := spec.Validate(); err != nil {
		return campaign.Spec{}, fmt.Errorf("%s: %w", name, err)
	}
	return spec, nil
}

// builtJob is one campaign job's components, constructed through the
// registry exactly as the campaign runner constructs them.
type builtJob struct {
	graph *graph.Graph
	proto core.Protocol
	adv   adversary.Adversary // nil for exhaustive jobs
	model *core.Model
}

// buildJob rebuilds job from the registry with the campaign's seed
// derivation: the graph draws from the job seed, the protocol and the
// adversary from salted sub-seeds. A mismatch with the runner would show
// as tallies that differ from the report's cells, which the per-job
// splits check.
func buildJob(spec campaign.Spec, job campaign.Job, rng *rand.Rand) (builtJob, error) {
	params := registry.Params{N: job.N, K: spec.K, P: spec.P, Seed: job.Seed}
	if !spec.Exhaustive() {
		params.Script = spec.Script
	}
	rng.Seed(job.Seed)
	g, err := registry.NewGraph(job.Graph, params, rng)
	if err != nil {
		return builtJob{}, err
	}
	params.N = g.N()
	params.Seed = subSeed(job.Seed, 0x70726F746F636F6C) // "protocol"
	proto, err := registry.NewProtocol(job.Protocol, params)
	if err != nil {
		return builtJob{}, err
	}
	var adv adversary.Adversary
	if !spec.Exhaustive() {
		params.Seed = subSeed(job.Seed, 0x61647665727361) // "adversa"
		if adv, err = registry.NewAdversary(job.Adversary, params); err != nil {
			return builtJob{}, err
		}
	}
	model, err := registry.ParseModel(job.Model)
	if err != nil {
		return builtJob{}, err
	}
	return builtJob{graph: g, proto: proto, adv: adv, model: model}, nil
}

// subSeed is the campaign runner's per-component seed salt: a splitmix64
// finalizer over seed^salt, folded to a positive non-zero int64.
func subSeed(seed int64, salt uint64) int64 {
	x := uint64(seed) ^ salt
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	s := int64(x &^ (1 << 63))
	if s == 0 {
		s = 1
	}
	return s
}

// renderJSON is the report's canonical JSON, the bytes every correctness
// check compares.
func renderJSON(rep *campaign.Report) ([]byte, error) {
	var buf bytes.Buffer
	err := rep.WriteJSON(&buf)
	return buf.Bytes(), err
}

// timeWrite collects garbage, then runs render for writeFor, at least
// once, and returns the mean. Starting every op's renders from a freshly
// collected heap keeps the GC work they trigger the same from op to op
// and from process to process; the collection itself is not timed.
func timeWrite(render func() error) (time.Duration, error) {
	runtime.GC()
	t := time.Now()
	n := 0
	for n == 0 || time.Since(t) < writeFor {
		if err := render(); err != nil {
			return 0, err
		}
		n++
	}
	return time.Since(t) / time.Duration(n), nil
}
