package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"ivnt/internal/branch"
	"ivnt/internal/classify"
	"ivnt/internal/cluster"
	"ivnt/internal/core"
	"ivnt/internal/engine"
	"ivnt/internal/extend"
	"ivnt/internal/gen"
	"ivnt/internal/inhouse"
	"ivnt/internal/interp"
	"ivnt/internal/oracle"
	"ivnt/internal/reduce"
	"ivnt/internal/relation"
	"ivnt/internal/rules"
	"ivnt/internal/staterep"
	"ivnt/internal/telemetry"
	"ivnt/internal/trace"
)

// journeyWorkload sizes one Framework.Run workload.
type journeyWorkload struct {
	spec     gen.DatasetSpec
	rows     int  // K_b rows per journey
	journeys int  // distinct journeys, run in turn
	cluster  bool // 2 executors on loopback TCP instead of local[2]
}

var journeyWorkloads = map[string]journeyWorkload{
	"lig-local":   {spec: gen.LIG, rows: 30_000, journeys: 2},
	"syn-cluster": {spec: gen.SYN, rows: 80_000, journeys: 2, cluster: true},
}

const (
	workers    = 2 // local workers, executors and client connections
	setupReps  = 9 // set-ups per run; setup_s is their median
	minTimed   = 5 // timed journeys even when -seconds runs out first
	tracedReps = 3 // minimum traced journeys in a traced run
)

// journeySystem is one set-up of the system under test.
type journeySystem struct {
	fw   *core.Framework
	kbs  []*relation.Relation
	stop func()
}

func (s *journeySystem) close() {
	if s.stop != nil {
		s.stop()
	}
}

// setupJourneys builds the system: the executor (and, on the cluster,
// the executors plus a first dial), core.New and the K_b relations.
func setupJourneys(ctx context.Context, w journeyWorkload, ds *gen.Dataset, traces []*trace.Trace) (*journeySystem, error) {
	sys := &journeySystem{}
	var exec engine.Executor = engine.NewLocal(workers)
	if w.cluster {
		addrs, stop, err := cluster.StartLocalCluster(ctx, workers)
		if err != nil {
			return nil, fmt.Errorf("start cluster: %w", err)
		}
		sys.stop = stop
		drv := &cluster.Driver{Addrs: addrs, SlotsPerExecutor: 1}
		probe := relation.FromRows(relation.NewSchema(relation.Column{Name: "x", Kind: relation.KindInt}),
			[]relation.Row{{relation.Int(1)}}).Repartition(workers)
		if _, _, err := drv.RunStage(ctx, probe, []engine.OpDesc{engine.Filter("x >= 0")}); err != nil {
			sys.close()
			return nil, fmt.Errorf("first dial: %w", err)
		}
		exec = drv
	}
	fw, err := core.New(ds.Catalog, ds.DefaultConfig(), exec)
	if err != nil {
		sys.close()
		return nil, err
	}
	sys.fw = fw
	parts := runtime.GOMAXPROCS(0) * 2 // what Framework.RunTrace picks
	for _, tr := range traces {
		sys.kbs = append(sys.kbs, tr.ToRelation(parts))
	}
	return sys, nil
}

// journeysOf generates n journeys of one vehicle: the layout and
// catalog of the Table 5 spec, with value processes seeded from seed
// (journey j from seed*1000+j). The seed changes the journeys, not the
// vehicle, so every journey matches the catalog.
func journeysOf(spec gen.DatasetSpec, seed int64, n, rows int) (*gen.Dataset, []*trace.Trace) {
	ds := gen.Build(spec)
	var out []*trace.Trace
	for j := 0; j < n; j++ {
		ds.Spec.Seed = seed*1000 + int64(j)
		out = append(out, ds.Generate(rows))
	}
	ds.Spec.Seed = spec.Seed
	return ds, out
}

// oracleExec runs stages through the naive reference implementation.
type oracleExec struct{}

func (oracleExec) Name() string { return "oracle" }

func (oracleExec) RunStage(_ context.Context, rel *relation.Relation, ops []engine.OpDesc) (*relation.Relation, engine.Stats, error) {
	out, err := oracle.RunStage(rel, ops)
	if err != nil {
		return nil, engine.Stats{}, err
	}
	return out, engine.Stats{RowsIn: rel.NumRows(), RowsOut: out.NumRows(), Partitions: len(rel.Partitions)}, nil
}

// digest hashes a state table: its signals, times and state keys.
func digest(tb *staterep.Table) string {
	h := sha256.New()
	for _, s := range tb.Signals {
		h.Write([]byte(s))
		h.Write([]byte{0})
	}
	var b [8]byte
	for i, t := range tb.Times {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(t))
		h.Write(b[:])
		h.Write([]byte(tb.StateKey(i)))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// heapSampler reads /gc/heap/live:bytes every 5ms and keeps its peak
// per window. A window closes on mark, or every `every` when that is
// positive; peak_live_heap_mb is the median of the window peaks, which
// is steadier from run to run than the single largest reading.
type heapSampler struct {
	stop  chan struct{}
	done  chan struct{}
	mu    sync.Mutex
	cur   uint64
	peaks []float64
}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		windowEnd := time.Now().Add(every)
		for {
			metrics.Read(s)
			h.mu.Lock()
			h.cur = max(h.cur, s[0].Value.Uint64())
			h.mu.Unlock()
			if every > 0 && time.Now().After(windowEnd) {
				h.mark()
				windowEnd = windowEnd.Add(every)
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// mark closes the current window.
func (h *heapSampler) mark() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.cur > 0 {
		h.peaks = append(h.peaks, float64(h.cur)/(1<<20))
	}
	h.cur = 0
}

// finish stops the sampler and returns the window peaks in MB.
func (h *heapSampler) finish() []float64 {
	close(h.stop)
	<-h.done
	h.mark()
	return h.peaks
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

// measureSetup sets the system up setupReps times, keeps the last one
// and reports the median set-up time.
func measureSetup[T interface{ close() }](r *report, build func() (T, error)) (T, error) {
	var sys T
	var times []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		start := time.Now()
		s, err := build()
		if err != nil {
			return sys, err
		}
		times = append(times, time.Since(start).Seconds())
		if i < setupReps-1 {
			s.close()
		} else {
			sys = s
		}
	}
	r.setN("setup_s", median(times), len(times))
	return sys, nil
}

func runJourneys(ctx context.Context, o options, r *report) error {
	w := journeyWorkloads[o.workload]
	ds, traces := journeysOf(w.spec, o.seed, w.journeys, w.rows)
	r.note("inputs: %s seed %d, %d journeys x %d K_b rows, executor %s", w.spec.Name, o.seed, w.journeys, w.rows,
		map[bool]string{false: "local[2]", true: "cluster 2x1 slot"}[w.cluster])

	sys, err := measureSetup(r, func() (*journeySystem, error) { return setupJourneys(ctx, w, ds, traces) })
	if err != nil {
		return err
	}
	defer sys.close()

	// The independent reference: the same framework over the oracle.
	refStart := time.Now()
	ref, err := core.New(ds.Catalog, ds.DefaultConfig(), oracleExec{})
	if err != nil {
		return err
	}
	want := make([]string, len(sys.kbs))
	for i, kb := range sys.kbs {
		res, err := ref.Run(ctx, kb)
		if err != nil {
			return fmt.Errorf("reference journey %d: %w", i, err)
		}
		want[i] = digest(res.State)
	}
	r.set("harness.reference_s", time.Since(refStart).Seconds())

	check := func(i int, res *core.Result, err error) {
		r.attempted++
		if err != nil {
			r.fail("journey %d: %v", i, err)
		} else if got := digest(res.State); got != want[i] {
			r.fail("journey %d: state digest %s, reference %s", i, got[:12], want[i][:12])
		}
	}
	// Warm-up: every distinct journey once, untimed but checked.
	for i, kb := range sys.kbs {
		res, err := sys.fw.Run(ctx, kb)
		check(i, res, err)
	}
	if o.trace {
		return tracedJourneys(ctx, o, w, ds, traces, sys, want, r)
	}

	steal := readSteal()
	heap := startHeapSampler(0)
	var walls []float64
	rows := 0
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for n := 0; n < minTimed || time.Now().Before(deadline); n++ {
		i := n % len(sys.kbs)
		start := time.Now()
		res, err := sys.fw.Run(ctx, sys.kbs[i])
		walls = append(walls, time.Since(start).Seconds())
		check(i, res, err)
		rows += sys.kbs[i].NumRows()
		heap.mark()
		if ctx.Err() != nil {
			break
		}
	}
	peaks := heap.finish()
	r.set("harness.cpu_steal_share", steal.stealShare())
	total := 0.0
	for _, s := range walls {
		total += s
	}
	p50 := median(walls)
	tq := tailQuantile(len(walls))
	r.setN("p50_ms", p50*1e3, len(walls))
	r.set("rate_per_s", float64(rows)/total)
	r.setN("peak_live_heap_mb", median(peaks), len(peaks))
	r.setN("journey_p50_s", p50, len(walls))
	r.set("rows_per_s", float64(rows)/total)
	r.note("journey %s %.4f s (n=%d), rows_per_s over %d K_b rows, live heap max %.1f MB",
		tailName(tq), quantile(walls, tq), len(walls), rows, maxOf(peaks))
	return nil
}

// layerTimes is one traced journey's attribution.
type layerTimes struct {
	wall, interp, reduce, reduceSelf, branchBusy, branchWall, alphaBusy, staterep time.Duration
	stageBusy                                                                     time.Duration
	stageCalls                                                                    int
	stats                                                                         engine.Stats
	ksRows, gatewayDropped, stateRows                                             int
	reduceRatio                                                                   float64
	gcCPU, totalCPU, allocBytes, allocObjs                                        float64
	digest                                                                        string
}

var runtimeSamples = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
}

func readRuntime() [4]float64 {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	var out [4]float64
	for i := range s {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			out[i] = s[i].Value.Float64()
		} else {
			out[i] = float64(s[i].Value.Uint64())
		}
	}
	return out
}

// tracedJourney runs Algorithm 1 the way core.Framework.Run composes it
// (internal/core/core.go, Run and ExtractAndReduce): the same public
// stage functions, in the same order, with the same GOMAXPROCS fan-out
// over signals, with a span around each call. Its state digest must
// equal Framework.Run's, which catches drift between this copy and core.
func tracedJourney(ctx context.Context, f *core.Framework, exec *tracedExec, rec *recorder, kb *relation.Relation) (*layerTimes, error) {
	lt := &layerTimes{}
	before := readRuntime()
	root := rec.start("journey", nil)
	defer func() {
		after := readRuntime()
		lt.gcCPU, lt.totalCPU = after[0]-before[0], after[1]-before[1]
		lt.allocBytes, lt.allocObjs = after[2]-before[2], after[3]-before[3]
	}()
	exec.take()

	ucomb, err := f.Catalog.Select(f.Config.SIDs...)
	if err != nil {
		return nil, err
	}
	opts := f.Interp
	if !opts.Preselect && len(opts.FullCatalog) == 0 {
		opts.FullCatalog = f.Catalog.Translations
	}
	sp := rec.start("interp.Extract", root)
	ks, exStats, err := interp.Extract(withSpan(ctx, sp), exec, kb, ucomb, opts)
	sp.finish()
	if err != nil {
		return nil, err
	}
	lt.interp, lt.ksRows = sp.dur(), exStats.RowsOut

	sp = rec.start("reduce.Run", root)
	reduced, err := reduce.Run(withSpan(ctx, sp), exec, ks, f.Config)
	sp.finish()
	if err != nil {
		return nil, err
	}
	lt.reduce, lt.reduceSelf = sp.dur(), rec.selfTime(sp)
	var redIn, redOut, reps int
	for i := range reduced {
		redIn += reduced[i].Stats.RowsIn
		redOut += reduced[i].Stats.RowsOut
		reps += reduced[i].Gateway.Representative.NumRows()
	}
	lt.gatewayDropped = lt.ksRows - reps
	lt.reduceRatio = 1
	if redIn > 0 {
		lt.reduceRatio = float64(redOut) / float64(redIn)
	}

	type sigOut struct {
		br  *branch.Result
		w   *relation.Relation
		err error
		sp  *span
	}
	fan := rec.start("branch.fanout", root)
	fctx := withSpan(ctx, fan)
	outs := make([]sigOut, len(reduced))
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i := range reduced {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			red := &reduced[i]
			var hint *rules.Translation
			if ts := f.Catalog.Lookup(red.SID); len(ts) > 0 {
				hint = &ts[0]
			}
			bsp := rec.start("branch.Process", fan)
			br, err := branch.Process(red.SID, red.Rel, hint, f.Config)
			bsp.finish()
			if err != nil {
				outs[i] = sigOut{err: err}
				return
			}
			esp := rec.start("extend.Run", fan)
			w, err := extend.Run(withSpan(fctx, esp), exec, red.SID, red.Rel, f.Config)
			esp.finish()
			outs[i] = sigOut{br: br, w: w, err: err, sp: bsp}
		}(i)
	}
	wg.Wait()
	fan.finish()
	lt.branchWall = fan.dur()

	var seqs []*relation.Relation
	var exts *relation.Relation
	for _, o := range outs {
		if o.err != nil {
			return nil, o.err
		}
		lt.branchBusy += o.sp.dur()
		if o.br.Branch == classify.Alpha {
			lt.alphaBusy += o.sp.dur()
		}
		seqs = append(seqs, o.br.Rel)
		if o.w == nil {
			continue
		}
		if exts == nil {
			exts = o.w
		} else if exts, err = exts.Concat(o.w); err != nil {
			return nil, err
		}
	}
	if exts != nil {
		seqs = append(seqs, exts)
	}
	sp = rec.start("staterep.Build", root)
	state, err := staterep.Build(seqs...)
	sp.finish()
	if err != nil {
		return nil, err
	}
	root.finish()
	lt.staterep, lt.stateRows = sp.dur(), state.NumRows()
	lt.wall = root.dur()
	lt.stageCalls, lt.stats = exec.take()
	lt.stageBusy = stageBusy(rec, root)
	lt.digest = digest(state)
	return lt, nil
}

// stageBusy sums the RunStage spans of one journey.
func stageBusy(rec *recorder, root *span) time.Duration {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	var busy time.Duration
	for _, s := range rec.spans {
		if s.Trace == root.Trace && s.Name == "engine.RunStage" {
			busy += s.dur()
		}
	}
	return busy
}

func tracedJourneys(ctx context.Context, o options, w journeyWorkload, ds *gen.Dataset, traces []*trace.Trace,
	sys *journeySystem, want []string, r *report) error {
	rec := newRecorder()
	exec := &tracedExec{inner: sys.fw.Exec, rec: rec}
	reg := telemetry.Default()
	taskHist := reg.HistogramData("task_seconds")

	steal := readSteal()
	heap := startHeapSampler(0)
	var traced []*layerTimes
	var tracedWalls, plainWalls []float64
	plainRows := 0
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for n := 0; n < tracedReps*len(sys.kbs) || time.Now().Before(deadline); n++ {
		i := n % len(sys.kbs)
		start := time.Now()
		res, err := sys.fw.Run(ctx, sys.kbs[i])
		plainWalls = append(plainWalls, time.Since(start).Seconds())
		plainRows += sys.kbs[i].NumRows()
		r.attempted++
		plain := ""
		if err != nil {
			r.fail("journey %d: %v", i, err)
		} else if plain = digest(res.State); plain != want[i] {
			r.fail("journey %d: state digest %s, reference %s", i, plain[:12], want[i][:12])
		}

		lt, err := tracedJourney(ctx, sys.fw, exec, rec, sys.kbs[i])
		r.attempted++
		if err != nil {
			r.fail("traced journey %d: %v", i, err)
			continue
		}
		if lt.digest != plain {
			r.fail("traced journey %d: state digest %s differs from Framework.Run's %q; the traced composition has drifted from internal/core",
				i, lt.digest[:12], plain)
		}
		traced = append(traced, lt)
		tracedWalls = append(tracedWalls, lt.wall.Seconds())
		heap.mark()
		if ctx.Err() != nil {
			break
		}
	}
	peaks := heap.finish()
	r.set("harness.cpu_steal_share", steal.stealShare())
	tasks := reg.HistogramData("task_seconds").Sub(taskHist)

	med := func(get func(*layerTimes) float64) float64 {
		var xs []float64
		for _, lt := range traced {
			xs = append(xs, get(lt))
		}
		return median(xs)
	}
	sec := func(d time.Duration) float64 { return d.Seconds() }
	if len(traced) == 0 {
		return fmt.Errorf("no traced journey completed")
	}
	first := traced[0] // journey 0: the exact counts come from it
	rows := float64(sys.kbs[0].NumRows())

	plainTotal := 0.0
	for _, s := range plainWalls {
		plainTotal += s
	}
	r.setN("journey_p50_s", median(plainWalls), len(plainWalls))
	r.set("rows_per_s", float64(plainRows)/plainTotal)
	r.set("trace.overhead_ratio", median(tracedWalls)/median(plainWalls))
	r.set("trace.coverage", med(func(lt *layerTimes) float64 {
		return sec(lt.interp+lt.reduce+lt.branchWall+lt.staterep) / sec(lt.wall)
	}))
	r.set("interp.busy_s", med(func(lt *layerTimes) float64 { return sec(lt.interp) }))
	r.set("interp.rows_out", float64(first.ksRows))
	r.set("reduce.busy_s", med(func(lt *layerTimes) float64 { return sec(lt.reduce) }))
	r.set("reduce.self_s", med(func(lt *layerTimes) float64 { return sec(lt.reduceSelf) }))
	r.set("reduce.ratio", first.reduceRatio)
	r.set("reduce.gateway_rows_dropped", float64(first.gatewayDropped))
	r.set("branch.busy_s", med(func(lt *layerTimes) float64 { return sec(lt.branchBusy) }))
	r.set("branch.wall_s", med(func(lt *layerTimes) float64 { return sec(lt.branchWall) }))
	r.set("branch.alpha_busy_s", med(func(lt *layerTimes) float64 { return sec(lt.alphaBusy) }))
	r.set("branch.parallel_eff", med(func(lt *layerTimes) float64 {
		return sec(lt.branchBusy) / (sec(lt.branchWall) * float64(runtime.GOMAXPROCS(0)))
	}))
	r.set("staterep.busy_s", med(func(lt *layerTimes) float64 { return sec(lt.staterep) }))
	r.set("staterep.rows_out", float64(first.stateRows))
	r.set("engine.stage_calls", float64(first.stageCalls))
	r.set("engine.stage_busy_s", med(func(lt *layerTimes) float64 { return sec(lt.stageBusy) }))
	r.set("engine.rows_in", float64(first.stats.RowsIn))
	r.set("engine.ns_per_row_in", med(func(lt *layerTimes) float64 {
		return float64(lt.stageBusy.Nanoseconds()) / float64(lt.stats.RowsIn)
	}))
	r.set("runtime.gc_cpu_share", med(func(lt *layerTimes) float64 { return lt.gcCPU / lt.totalCPU }))
	r.set("runtime.alloc_bytes_per_row", med(func(lt *layerTimes) float64 { return lt.allocBytes / rows }))
	r.set("runtime.allocs_per_row", med(func(lt *layerTimes) float64 { return lt.allocObjs / rows }))
	r.setN("runtime.peak_live_heap_mb", median(peaks), len(peaks))
	if w.cluster {
		r.set("cluster.stage_wait_s", med(func(lt *layerTimes) float64 {
			return sec(lt.stageBusy - lt.stats.EncodeWall - lt.stats.DecodeWall)
		}))
		r.set("cluster.bytes_per_row", med(func(lt *layerTimes) float64 {
			return float64(lt.stats.BytesSent+lt.stats.BytesRecv) / rows
		}))
		r.set("cluster.tasks", float64(first.stats.Tasks))
		r.set("cluster.retries", med(func(lt *layerTimes) float64 { return float64(lt.stats.Retries) }))
		r.set("cluster.reconnects", med(func(lt *layerTimes) float64 { return float64(lt.stats.Reconnects) }))
		r.set("cluster.speculative", med(func(lt *layerTimes) float64 { return float64(lt.stats.Speculative) }))
		r.set("cluster.stages_shipped", med(func(lt *layerTimes) float64 { return float64(lt.stats.StagesShipped) }))
		r.set("cluster.task_p50_ms", tasks.Quantile(0.5)*1e3)
		r.set("cluster.task_p99_ms", tasks.Quantile(0.99)*1e3)
		r.set("colcodec.encode_s", med(func(lt *layerTimes) float64 { return sec(lt.stats.EncodeWall) }))
		r.set("colcodec.decode_s", med(func(lt *layerTimes) float64 { return sec(lt.stats.DecodeWall) }))
	}
	r.note("traced journeys %d, untraced %d; per-journey medians unless [exact] (journey 0)", len(traced), len(plainWalls))

	if !w.cluster {
		// Table 6 comparator: the in-house tool ingests each journey
		// sequentially, interpreting the whole catalog on the way in.
		tool, err := inhouse.New(ds.Catalog)
		if err != nil {
			return err
		}
		ingest := 0.0
		total := 0
		for _, tr := range traces {
			tool.Reset()
			sp := rec.start("inhouse.Ingest", nil)
			if err := tool.Ingest(tr); err != nil {
				return fmt.Errorf("inhouse ingest: %w", err)
			}
			sp.finish()
			ingest += sp.dur().Seconds()
			total += tr.Len()
		}
		r.set("inhouse.ingest_rows_per_s", float64(total)/ingest)
		r.set("inhouse.speedup", (ingest/float64(len(traces)))/med(func(lt *layerTimes) float64 { return sec(lt.interp) }))
	}
	path, err := rec.write(o.outDir, o.workload)
	if err != nil {
		return err
	}
	r.note("spans: %s", path)
	return nil
}
