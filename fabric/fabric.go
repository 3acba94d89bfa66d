// Package fabric is the public distributed campaign coordinator, the
// stable facade over repro/internal/fabric. Run splits a campaign
// spec's cell matrix into contiguous shards, executes each shard as a
// cell-range job on a pool of wbserve worker endpoints (via
// repro/client), follows each job's per-cell SSE stream, and merges the
// cells back into matrix order. The stream is the only transport: a
// stream lost for good fails the attempt, and the shard is resubmitted.
// Seeds derive from job coordinates, never from scheduling, so the
// assembled report is byte-identical to campaign.Run of the same spec —
// at any worker count, any shard assignment, and across worker failures,
// which the coordinator handles by resubmitting a failed attempt's shard
// and health-probing the failed worker before it gets more work
// (duplicate cells are deduped by absolute index; first copy wins). Run
// returns only after every job it started has streamed its whole range
// or had its cancel request return, which takes at most 5 s.
//
//	rep, err := fabric.Run(ctx, spec, fabric.Options{
//		Workers: []string{"http://a:8080", "http://b:8080"},
//	})
package fabric

import (
	"context"

	"repro/campaign"
	internal "repro/internal/fabric"
	"repro/internal/telemetry"
)

// Options configures a fleet run; only Workers is required. Shards
// picks the number of contiguous cell-range shards (0 = one per
// worker), OnCellDone observes each cell once, in merge order, the
// moment it is first merged, Metrics and Logf receive the coordinator's
// wb_fabric_* series and progress lines, and HTTPClient replaces the
// client used for worker calls. Retry, probe and steal timing is fixed.
type Options = internal.Options

// Metrics is the wb_fabric_* instrument group an Options.Metrics field
// accepts; obtain one from the process telemetry set.
type Metrics = telemetry.FabricMetrics

// Run executes the campaign across the worker fleet and returns the
// assembled report, byte-identical to a local campaign.Run of the same
// spec.
func Run(ctx context.Context, spec campaign.Spec, opts Options) (*campaign.Report, error) {
	return internal.Run(ctx, spec, opts)
}
