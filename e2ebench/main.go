// Command e2ebench is the repository's end-to-end benchmark. It runs one
// workload per invocation, checks every output for correctness, prints
// every metric by name with its unit, and ends with one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Workloads:
//
//	lig-local    core.Framework.Run on LIG journeys, local executor
//	syn-cluster  core.Framework.Run on SYN journeys, 2-executor TCP cluster
//	serve-mixed  open-loop HTTP lookups, scans and ingests against serve.Server
//
// With -trace 0 the JSON carries the end-to-end metrics of an untraced
// run; with -trace 1 it carries the per-layer metrics of a traced run,
// whose spans are written to -out when the run ends. Usage:
//
//	bash e2ebench/run.sh --workload lig-local --seed 1 --seconds 15 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// endToEnd names the metrics an untraced run reports, in order. Every
// workload reports all of them:
//
//	setup_s            median of several set-ups of the system under test:
//	                   executor (cluster start and first dial), core.New
//	                   and the K_b relations; or store open, server and
//	                   HTTP listener over an already sealed store
//	p50_ms             median journey (lig-local, syn-cluster) or lookup
//	                   from its due time (serve-mixed)
//	rate_per_s         K_b rows per second of journey wall time, or
//	                   requests completed per second at the nominal
//	                   offered rate (serve-mixed)
//	peak_live_heap_mb  median over journeys (serve-mixed: seconds) of
//	                   the peak of /gc/heap/live:bytes while timed
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"rate_per_s", "1/s"},
	{"peak_live_heap_mb", "MB"},
}

// perLayer names the metrics a traced run reports: first the detailed
// end-to-end figures of its untraced operations, then the layers. A
// workload that does not exercise a layer reports 0 for it.
var perLayer = []metricDef{
	{"error_ratio", "ratio"},
	{"journey_p50_s", "s"},
	{"rows_per_s", "rows/s"},
	{"lookup_p50_ms", "ms"},
	{"lookup_p99_ms", "ms"},
	{"scan_p50_ms", "ms"},
	{"scan_p90_ms", "ms"},
	{"ingest_p50_ms", "ms"},
	{"max_qps_in_slo", "req/s"},
	{"harness.reference_s", "s"},
	{"harness.gen_lag_ms_max", "ms"},
	{"harness.cpu_steal_share", "ratio"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.coverage", "ratio"},
	{"interp.busy_s", "s"},
	{"interp.rows_out", "count"},
	{"reduce.busy_s", "s"},
	{"reduce.self_s", "s"},
	{"reduce.ratio", "ratio"},
	{"reduce.gateway_rows_dropped", "count"},
	{"branch.busy_s", "s"},
	{"branch.wall_s", "s"},
	{"branch.alpha_busy_s", "s"},
	{"branch.parallel_eff", "ratio"},
	{"staterep.busy_s", "s"},
	{"staterep.rows_out", "count"},
	{"engine.stage_calls", "count"},
	{"engine.stage_busy_s", "s"},
	{"engine.rows_in", "count"},
	{"engine.ns_per_row_in", "ns"},
	{"runtime.gc_cpu_share", "ratio"},
	{"runtime.alloc_bytes_per_row", "B"},
	{"runtime.allocs_per_row", "count"},
	{"runtime.peak_live_heap_mb", "MB"},
	{"cluster.stage_wait_s", "s"},
	{"cluster.bytes_per_row", "B"},
	{"cluster.tasks", "count"},
	{"cluster.retries", "count"},
	{"cluster.reconnects", "count"},
	{"cluster.speculative", "count"},
	{"cluster.stages_shipped", "count"},
	{"cluster.task_p50_ms", "ms"},
	{"cluster.task_p99_ms", "ms"},
	{"colcodec.encode_s", "s"},
	{"colcodec.decode_s", "s"},
	{"serve.query_p50_ms", "ms"},
	{"serve.http_overhead_ms", "ms"},
	{"serve.result_cache_hit_ratio", "ratio"},
	{"serve.plan_cache_hit_ratio", "ratio"},
	{"serve.repeat_share", "ratio"},
	{"serve.admission_deferrals", "count"},
	{"serve.query_capacity_per_s", "req/s"},
	{"query.parse_us", "us"},
	{"query.compile_us", "us"},
	{"segstore.segments_start", "count"},
	{"segstore.segments_end", "count"},
	{"segstore.rows_start", "count"},
	{"segstore.rows_end", "count"},
	{"segstore.segments_scanned_per_lookup_start", "count"},
	{"segstore.segments_scanned_per_lookup_end", "count"},
	{"segstore.prune_ratio", "ratio"},
	{"segstore.bytes_decoded_per_query", "B"},
	{"segstore.seal_ms_p50", "ms"},
	{"segstore.build_s", "s"},
	{"inhouse.ingest_rows_per_s", "rows/s"},
	{"inhouse.speedup", "ratio"},
}

// exactCounts must repeat exactly for a given seed; they are printed
// with an [exact] tag so a change can name one beforehand and be
// checked against it as a count, not a timing.
var exactCounts = map[string]bool{
	"interp.rows_out":             true,
	"reduce.ratio":                true,
	"reduce.gateway_rows_dropped": true,
	"staterep.rows_out":           true,
	"engine.stage_calls":          true,
	"engine.rows_in":              true,
	"cluster.tasks":               true,
}

type metricDef struct{ name, unit string }

// value is one reported figure; n is its sample count where it is a
// percentile or a median.
type value struct {
	v float64
	n int
}

// report collects a run's figures, its operation counts and the details
// of any correctness failure.
type report struct {
	workload  string
	values    map[string]value
	info      []string // extra named figures printed but not in the JSON
	attempted int
	failed    int
	errors    []string
}

func newReport(workload string) *report {
	return &report{workload: workload, values: map[string]value{}}
}

func (r *report) set(name string, v float64)         { r.values[name] = value{v: v} }
func (r *report) setN(name string, v float64, n int) { r.values[name] = value{v: v, n: n} }
func (r *report) note(format string, args ...any) {
	r.info = append(r.info, fmt.Sprintf(format, args...))
}
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.errors) < 20 {
		r.errors = append(r.errors, fmt.Sprintf(format, args...))
	}
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(ctx context.Context, o options, r *report) error{
	"lig-local":   runJourneys,
	"syn-cluster": runJourneys,
	"serve-mixed": runServe,
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "lig-local, syn-cluster or serve-mixed")
	flag.Int64Var(&o.seed, "seed", 1, "input seed; the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 15, "length of the measured phase")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced variant and reports per-layer metrics")
	flag.StringVar(&o.outDir, "out", ".bench_build/e2ebench", "directory for span files")
	flag.Parse()
	o.trace = traceFlag == 1
	run, ok := workloads[o.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "e2ebench: unknown workload %q\n", o.workload)
		os.Exit(2)
	}
	if o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "e2ebench: -seconds must be positive")
		os.Exit(2)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	r := newReport(o.workload)
	if err := run(ctx, o, r); err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", o.workload, err)
		cancel()
		os.Exit(1)
	}
	ok = r.print(o.trace)
	cancel()
	if !ok {
		os.Exit(1)
	}
}

// print writes every figure with its unit, then the JSON result line. It
// reports whether the run was correct and complete.
func (r *report) print(traced bool) bool {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	if r.attempted > 0 {
		r.set("error_ratio", float64(r.failed)/float64(r.attempted))
	}
	fmt.Printf("workload %s  GOMAXPROCS=%d  %s/%s  traced=%v\n",
		r.workload, runtime.GOMAXPROCS(0), runtime.GOOS, runtime.GOARCH, traced)
	for _, line := range r.info {
		fmt.Println("  " + line)
	}
	metrics := map[string]map[string]any{}
	complete := true
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok && !traced {
			complete = false
			r.errors = append(r.errors, "metric "+d.name+" was not measured")
		}
		tag := ""
		if v.n > 0 {
			tag = fmt.Sprintf("  (n=%d)", v.n)
		}
		if exactCounts[d.name] {
			tag += "  [exact]"
		}
		fmt.Printf("  %-44s %14.6g %s%s\n", d.name, v.v, d.unit, tag)
		metrics[d.name] = map[string]any{"value": v.v, "unit": d.unit}
	}
	var extra []string
	for name := range r.values {
		if !contains(defs, name) {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		fmt.Printf("  %-44s %14.6g\n", name, r.values[name].v)
	}
	for _, e := range r.errors {
		fmt.Fprintln(os.Stderr, "e2ebench: FAIL: "+e)
	}
	correct := r.failed == 0 && complete && r.attempted > 0
	fmt.Printf("  attempted %d  failed %d  correct %v\n", r.attempted, r.failed, correct)
	line, err := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench: "+err.Error())
		return false
	}
	fmt.Println(string(line))
	return correct
}

// stealClock reads the host's CPU time stolen by the hypervisor. A
// slow run with a high harness.cpu_steal_share was slowed by other
// guests, not by the program.
type stealClock struct{ steal, total float64 }

// readSteal parses the aggregate line of /proc/stat; elsewhere it
// reads zero.
func readSteal() stealClock {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return stealClock{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	var c stealClock
	for i, f := range fields[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return stealClock{}
		}
		if i < 8 { // user..steal; guest time is already in user
			c.total += v
		}
		if i == 7 {
			c.steal = v
		}
	}
	return c
}

// stealShare is the share of CPU time stolen since c.
func (c stealClock) stealShare() float64 {
	now := readSteal()
	if now.total <= c.total {
		return 0
	}
	return (now.steal - c.steal) / (now.total - c.total)
}

func contains(defs []metricDef, name string) bool {
	for _, d := range defs {
		if d.name == name {
			return true
		}
	}
	return false
}

// quantile returns the q-quantile of xs (nearest rank on a sorted copy).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailQuantile is the highest percentile with at least ten samples
// beyond it, as the benchmark reports tails; below 11 samples it is the
// median.
func tailQuantile(n int) float64 {
	if n <= 10 {
		return 0.5
	}
	q := float64(n-10) / float64(n)
	for _, p := range []float64{0.999, 0.99, 0.95, 0.9, 0.75} {
		if p <= q {
			return p
		}
	}
	return 0.5
}

func tailName(q float64) string {
	return "p" + strings.TrimPrefix(fmt.Sprintf("%g", q*100), "0")
}
