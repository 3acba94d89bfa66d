// Command wbperf is the repository benchmark. It drives the whiteboard
// stack through its public Go APIs in one process and prints, as the last
// line of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Plain runs (-trace 0) carry the end-to-end metrics; traced runs
// (-trace 1) carry the per-layer metrics and write a span file. The line
// before it is a record of the machine, the build and the workload's
// shape. See README.md for the workloads and the metric table.
//
//	go run . -workload exhaustive -seed 1 -seconds 16 -trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// procs is the pinned GOMAXPROCS: the harness never runs more than two
// compute goroutines, so results stay comparable on any machine with at
// least two cores.
const procs = 2

// metricDef names one metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics every plain run prints.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_p99_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"write_p50_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics every traced run prints. A layer the workload
// does not exercise reads 0; README.md names the workload that measures
// each one.
var perLayer = []metricDef{
	{"engine.memo.classes", "count/op"},
	{"engine.memo.steps", "count/op"},
	{"engine.memo.collapse_ratio", "ratio"},
	{"engine.memo.collapse.collapse_ratio", "ratio"},
	{"engine.memo.distinct.collapse_ratio", "ratio"},
	{"engine.memo.collapse.ns_per_class", "ns"},
	{"engine.memo.distinct.ns_per_class", "ns"},
	{"engine.memo.allocs_per_class", "count"},
	{"engine.memo.bytes_per_class", "B"},
	{"engine.memo.gc_cycles", "count/op"},
	{"engine.memo.self_ms", "ms/op"},
	{"protocols.memo_callback_ms", "ms/op"},
	{"campaign.busy_ratio", "ratio"},
	{"campaign.local_ms", "ms"},
	{"telemetry.on_off_ratio", "ratio"},
	{"engine.run.ns_per_write", "ns"},
	{"engine.run.self_ms", "ms/op"},
	{"engine.run.allocs_per_job", "count"},
	{"protocols.activate_ms", "ms/op"},
	{"protocols.compose_ms", "ms/op"},
	{"protocols.output_ms", "ms/op"},
	{"adversary.choose_ms", "ms/op"},
	{"registry.build_ms", "ms/op"},
	{"fabric.first_submit_ms", "ms"},
	{"fabric.overhead_ms", "ms"},
	{"fabric.resubmissions", "count/op"},
	{"fabric.cells_deduped", "count/op"},
	{"fabric.useful_cell_ratio", "ratio"},
	{"fabric.leftover_jobs", "count/op"},
	{"fabric.drain_ms", "ms"},
	{"client.requests.health", "count/op"},
	{"client.requests.submit", "count/op"},
	{"client.requests.events", "count/op"},
	{"client.requests.status", "count/op"},
	{"client.requests.cancel", "count/op"},
	{"client.requests.report", "count/op"},
	{"sse.first_cell_ms", "ms"},
	{"store.save_ms", "ms"},
	{"store.list_ms", "ms"},
	{"store.resolve_ms", "ms"},
	{"store.get_entry_hit_ratio", "ratio"},
	{"store.load_entry_ms", "ms"},
	{"store.load_spec_ms", "ms"},
	{"store.bytes_per_run", "B"},
	{"store.index_rebuilds", "count/op"},
	{"server.report_json.p50_ms", "ms"},
	{"server.report_csv.p50_ms", "ms"},
	{"server.not_modified.p50_ms", "ms"},
	{"server.list.p50_ms", "ms"},
	{"server.list_filtered.p50_ms", "ms"},
	{"server.diff.p50_ms", "ms"},
	{"server.ingest.p50_ms", "ms"},
	{"server.render_ms", "ms"},
	{"server.diff_ms", "ms"},
	{"server.diff_cache_hit_ratio", "ratio"},
	{"server.http_remainder_ms", "ms"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}

// config is what every workload receives.
type config struct {
	seed    int64
	window  time.Duration // how long the timed phase measures
	traced  bool
	short   bool   // smaller inputs and one set-up, for the package tests
	workDir string // scratch space for stores; removed at exit
	tr      *tracer
	log     io.Writer
}

// setupReps is how many times a run sets its workload up; setup_s is the
// median, so one cold pass cannot set it.
func (c config) setupReps() int {
	if c.short {
		return 1
	}
	return 3
}

// result is what a workload measured.
type result struct {
	attempted, failed int
	correct           bool
	values            map[string]float64 // by metric name
	record            map[string]any
	rawSetup          float64
}

// newResult starts a result from the set-up times setup returned.
func newResult(setupS [2]float64) *result {
	r := &result{correct: true, values: map[string]float64{}, record: map[string]any{}}
	r.values["setup_s"], r.rawSetup = setupS[0], setupS[1]
	return r
}

// fail records one failed op and why.
func (r *result) fail(log io.Writer, format string, args ...any) {
	r.failed++
	r.correct = false
	fmt.Fprintf(log, "wbperf: op failed: "+format+"\n", args...)
}

// workloads are the benchmark's workloads by name; BENCHMARK.json says
// why each one is there.
var workloads = map[string]func(context.Context, config) (*result, error){
	"exhaustive": runExhaustive,
	"fleet":      runFleet,
	"serve":      runServe,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wbperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: exhaustive, fleet or serve")
	seed := fs.Int64("seed", 1, "seed for the workload's generated inputs")
	seconds := fs.Int("seconds", 16, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced variant and prints per-layer metrics")
	workDir := fs.String("workdir", ".bench_build", "directory for scratch stores and span files")
	short := fs.Bool("short", false, "small inputs and a single set-up (tests)")
	commit := fs.String("commit", "unknown", "commit the program was built from, for the record")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "wbperf: want -workload exhaustive|fleet|serve, -seconds ≥ 1 and -trace 0|1\n")
		return 2
	}
	runtime.GOMAXPROCS(procs)
	overLimit.Store(0)

	os.MkdirAll(*workDir, 0o755) // MkdirTemp reports any failure
	scratch, err := os.MkdirTemp(*workDir, "run-")
	if err != nil {
		fmt.Fprintf(stderr, "wbperf: %v\n", err)
		return 1
	}
	defer os.RemoveAll(scratch)
	cfg := config{
		seed: *seed, window: time.Duration(*seconds) * time.Second,
		traced: *trace == 1, short: *short, workDir: scratch, log: stderr,
	}
	if cfg.traced {
		cfg.tr = newTracer()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	res, err := w(ctx, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "wbperf: %s: %v\n", *name, err)
		return 1
	}
	if cfg.traced {
		path := filepath.Join(*workDir, "spans", fmt.Sprintf("%s-seed%d.json", *name, *seed))
		if err := cfg.tr.write(path); err != nil {
			fmt.Fprintf(stderr, "wbperf: writing spans: %v\n", err)
			return 1
		}
		res.record["span_file"] = path
	}
	defs := endToEnd
	if cfg.traced {
		defs = perLayer
	}
	for k, v := range environment(*commit) {
		res.record[k] = v
	}
	res.record["workload"] = *name
	res.record["seed"] = *seed
	res.record["seconds"] = *seconds
	res.record["traced"] = cfg.traced
	res.record["attempted"], res.record["failed"] = res.attempted, res.failed
	res.record["steal_over_limit"] = overLimit.Load()
	if err := emit(stdout, res, defs); err != nil {
		fmt.Fprintf(stderr, "wbperf: %v\n", err)
		return 1
	}
	return 0
}

// emit prints the record line and then the result line. Every metric of
// defs is printed, in defs order, 0 where the workload did not measure it.
func emit(w io.Writer, res *result, defs []metricDef) error {
	rec, err := json.Marshal(map[string]any{"record": res.record})
	if err != nil {
		return err
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	vals := make(map[string]value, len(defs))
	for _, d := range defs {
		vals[d.name] = value{res.values[d.name], d.unit}
	}
	out, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct && res.failed == 0 && res.attempted > 0, res.attempted, res.failed, vals})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", rec, out)
	return err
}

// environment records what the numbers were measured on.
func environment(commit string) map[string]any {
	return map[string]any{
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuModel(),
		"commit":     commit,
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// peakRSSMB is the process's high-water resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// cpuClock reads the runtime's cumulative GC and total CPU time, for
// runtime.gc_cpu_fraction over a window.
type cpuClock struct{ gc, total float64 }

func readCPUClock() cpuClock {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return cpuClock{gc: s[0].Value.Float64(), total: s[1].Value.Float64()}
}

// gcFraction is the share of CPU time spent on GC since c.
func (c cpuClock) gcFraction() float64 {
	now := readCPUClock()
	return ratio(now.gc-c.gc, now.total-c.total)
}

// setup runs build reps times and returns the last state and the median
// set-up time in seconds, steal-adjusted and raw. Every state but the
// last is closed at once; a rep that fails fails the run.
func setup[S any](reps int, build func(rep int) (S, error), closeState func(S)) (S, [2]float64, error) {
	var state S
	var times, raw []float64
	for rep := 0; rep < reps; rep++ {
		var s S
		var err error
		wall, adj := measure(func() { s, err = build(rep) })
		if err != nil {
			return state, [2]float64{}, fmt.Errorf("set-up %d: %w", rep+1, err)
		}
		times, raw = append(times, adj.Seconds()), append(raw, wall.Seconds())
		if rep < reps-1 {
			closeState(s)
		}
		state = s
	}
	return state, [2]float64{median(times), median(raw)}, nil
}

// stealClock reads the machine's busy and stolen CPU time from
// /proc/stat. On a shared virtual machine the hypervisor withholds a
// varying share of the CPU time the guest wants ("steal"), and every wall
// time stretches with it. Second-long timings are reported with that
// share removed, within stealLimit; the raw wall figures and the share go
// into the record line.
type stealClock struct{ busy, steal float64 }

func readStealClock() stealClock {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return stealClock{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return stealClock{}
	}
	v := func(i int) float64 { x, _ := strconv.ParseFloat(f[i], 64); return x }
	return stealClock{busy: v(1) + v(2) + v(3) + v(6) + v(7), steal: v(8)}
}

// stolen is the share of wanted CPU time the hypervisor withheld since c.
func (c stealClock) stolen() float64 {
	now := readStealClock()
	return ratio(now.steal-c.steal, now.busy-c.busy+now.steal-c.steal)
}

// stealLimit is the largest steal share a time is adjusted for. The
// adjustment was checked on second-long ops with steal up to this share;
// above it a time is reported as measured and counted in overLimit.
const stealLimit = 0.25

// overLimit counts the intervals of this run whose steal share was above
// stealLimit; the record line carries it.
var overLimit atomic.Int64

// adjust removes the stolen share from wall, or returns wall unchanged
// when the share is above stealLimit.
func adjust(wall time.Duration, stolen float64) time.Duration {
	if stolen > stealLimit {
		overLimit.Add(1)
		return wall
	}
	return time.Duration(float64(wall) * (1 - stolen))
}

// measure runs f, which should last a second or more, and returns its
// wall time and its steal-adjusted time.
func measure(f func()) (wall, adjusted time.Duration) {
	sc := readStealClock()
	t := time.Now()
	f()
	wall = time.Since(t)
	return wall, adjust(wall, sc.stolen())
}

// window is a timed phase: its wall time, steal share, GC share and
// resident set.
type window struct {
	start time.Time
	steal stealClock
	cpu   cpuClock
	rss   *rssSampler
	ops   [][2]time.Time // when each op ran, for its resident-set peak
}

func startWindow() *window {
	return &window{start: time.Now(), steal: readStealClock(), cpu: readCPUClock(), rss: startRSS()}
}

// op runs f as one timed op and returns its wall and steal-adjusted time.
func (w *window) op(f func()) (wall, adjusted time.Duration) {
	t := time.Now()
	wall, adjusted = measure(f)
	w.ops = append(w.ops, [2]time.Time{t, time.Now()})
	return wall, adjusted
}

// windowStats is what a finished window measured.
type windowStats struct {
	wall     time.Duration
	stolen   float64       // share of wanted CPU time withheld
	gcCPU    float64       // share of the process's CPU time spent on GC
	adjusted time.Duration // wall less the stolen share, within stealLimit
	rssPeaks []float64     // resident-set high-water mark per op, or per second without ops
	rssMax   float64       // over the whole window
}

func (w *window) end() windowStats {
	end := time.Now()
	w.rss.close()
	ws := windowStats{wall: end.Sub(w.start), stolen: w.steal.stolen(), gcCPU: w.cpu.gcFraction()}
	ws.adjusted = adjust(ws.wall, ws.stolen)
	for _, op := range w.ops {
		ws.rssPeaks = append(ws.rssPeaks, w.rss.peak(op[0], op[1]))
	}
	if len(w.ops) == 0 {
		ws.rssPeaks = w.rss.slicePeaks(w.start, end, time.Second)
	}
	ws.rssMax = w.rss.peak(w.start, end)
	return ws
}

// endToEnd fills a plain run's metrics from its op latencies and write
// times in ms, and records the raw wall latencies, rawLat, beside them.
// Throughput is over ws.adjusted.
func (r *result) endToEnd(lat, rawLat, writes []float64, ws windowStats) {
	if len(lat) <= 100 {
		r.record["op_ms"] = lat
	}
	r.values["op_p50_ms"] = median(lat)
	r.values["op_p99_ms"] = percentile(lat, 0.99)
	r.values["ops_per_s"] = float64(len(lat)) / ws.adjusted.Seconds()
	r.values["write_p50_ms"] = median(writes)
	r.values["peak_rss_mb"] = median(ws.rssPeaks)
	r.record["rss_window_max_mb"] = ws.rssMax
	r.record["rss_process_max_mb"] = peakRSSMB()
	r.record["op_samples"] = len(lat)
	r.record["write_samples"] = len(writes)
	r.record["window_steal_share"] = ws.stolen
	r.record["gc_cpu_fraction"] = ws.gcCPU
	r.record["raw_wall"] = map[string]float64{
		"op_p50_ms": median(rawLat),
		"op_p99_ms": percentile(rawLat, 0.99),
		"ops_per_s": float64(len(lat)) / ws.wall.Seconds(),
		"window_s":  ws.wall.Seconds(),
		"setup_s":   r.rawSetup,
	}
}
