package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"ivnt/internal/core"
	"ivnt/internal/engine"
	"ivnt/internal/gen"
	"ivnt/internal/query"
	"ivnt/internal/reduce"
	"ivnt/internal/relation"
	"ivnt/internal/segstore"
	"ivnt/internal/serve"
	"ivnt/internal/telemetry"
	"ivnt/internal/trace"
)

// The serve-mixed traffic: an open loop of seeded Poisson arrivals at
// serveRate requests per second, served over at most two connections.
// Every block of blockLen consecutive requests holds exactly one scan
// and one ingest at seeded positions, so each run carries the same mix.
const (
	serveRows     = 30_000 // K_b rows of the LIG journey whose reduced sequences fill the store
	serveRate     = 200.0  // offered requests per second
	blockLen      = 100    // requests per block: 1 full-scan aggregate, 1 ingest, the rest lookups
	ingestRows    = 16     // rows per ingest, one new single-sid segment each
	windowsPerSID = 64     // lookup windows per signal; skewed draws make statements repeat
	tenant        = "bench"
	relName       = "lig"
)

type reqKind int

const (
	kLookup reqKind = iota
	kScan
	kIngest
)

// request is one scheduled operation and, after the run, its outcome.
type request struct {
	kind reqKind
	due  time.Duration // offset from the start of the timed phase
	sql  string
	sid  string
	lo   float64 // lookup window [lo, hi)
	hi   float64
	rows [][]any // ingest payload

	sent, done time.Duration
	err        error
	rowCount   int
	counts     map[string]int // scan: per-sid counts
}

// serveData is the reference the responses are checked against: the
// reduced LIG sequences held in memory.
type serveData struct {
	sids   []string
	times  map[string][]float64 // sorted t per sid
	t0, t1 float64
	segs   [][]relation.Row // one segment per signal, as extract -store-dir seals them
	rows   int
}

func prepareServeData(ctx context.Context, seed int64) (*serveData, error) {
	ds, trs := journeysOf(gen.LIG, seed, 1, serveRows)
	tr := trs[0]
	fw, err := core.New(ds.Catalog, ds.DefaultConfig(), engine.NewLocal(workers))
	if err != nil {
		return nil, err
	}
	reduced, _, _, err := fw.ExtractAndReduce(ctx, tr.ToRelation(2*workers))
	if err != nil {
		return nil, err
	}
	d := &serveData{times: map[string][]float64{}}
	d.t0, d.t1 = tr.Tuples[0].T, tr.Tuples[tr.Len()-1].T
	for _, red := range reduced {
		if rows := red.Rel.Rows(); len(rows) > 0 {
			d.addSegment(red, rows)
		}
	}
	return d, nil
}

func (d *serveData) addSegment(red reduce.Reduced, rows []relation.Row) {
	tIdx := red.Rel.Schema.Index(trace.ColT)
	ts := make([]float64, len(rows))
	for i, r := range rows {
		ts[i] = r[tIdx].AsFloat()
	}
	sort.Float64s(ts)
	d.sids = append(d.sids, red.SID)
	d.times[red.SID] = ts
	d.segs = append(d.segs, rows)
	d.rows += len(rows)
}

// count is the number of sid rows with lo <= t < hi.
func (d *serveData) count(sid string, lo, hi float64) int {
	ts := d.times[sid]
	return sort.SearchFloat64s(ts, hi) - sort.SearchFloat64s(ts, lo)
}

// schedule draws the request stream for one run from the seed.
func (d *serveData) schedule(seed int64, seconds, rate float64) []*request {
	rng := rand.New(rand.NewSource(seed ^ 0x5e7e))
	sidZipf := rand.NewZipf(rng, 1.05, 4, uint64(len(d.sids)-1))
	winZipf := rand.NewZipf(rng, 1.1, 2, windowsPerSID-1)
	width := (d.t1 - d.t0) / windowsPerSID
	var out []*request
	at := 0.0
	ingests := 0
	var scanAt, ingestAt int
	for n := 0; ; n++ {
		if n%blockLen == 0 {
			scanAt = rng.Intn(blockLen)
			ingestAt = (scanAt + 1 + rng.Intn(blockLen-1)) % blockLen
		}
		at += rng.ExpFloat64() / rate
		if at >= seconds {
			return out
		}
		req := &request{due: time.Duration(at * float64(time.Second))}
		switch n % blockLen {
		case ingestAt:
			req.kind = kIngest
			req.sid = d.sids[rng.Intn(len(d.sids))]
			for i := 0; i < ingestRows; i++ {
				// Ingested rows lie after the journey, outside every
				// lookup window, so only scans see them.
				t := d.t1 + 1 + float64(ingests*ingestRows+i)*0.01
				req.rows = append(req.rows, []any{t, req.sid, 1.5, "ING"})
			}
			ingests++
		case scanAt:
			// A vacuous lower bound on t makes each scan statement new,
			// so scans run the scan path rather than the result cache.
			req.kind = kScan
			req.sql = fmt.Sprintf("SELECT sid, count(*) AS n FROM %s WHERE t >= %d GROUP BY sid",
				relName, int64(d.t0)-1-rng.Int63n(1<<20))
		default:
			req.kind = kLookup
			req.sid = d.sids[sidZipf.Uint64()]
			w := float64(winZipf.Uint64())
			// Round-trip the bounds through their text so the
			// reference compares exactly what the query compares.
			req.lo, _ = strconv.ParseFloat(strconv.FormatFloat(d.t0+w*width, 'f', 3, 64), 64)
			req.hi, _ = strconv.ParseFloat(strconv.FormatFloat(d.t0+(w+1)*width, 'f', 3, 64), 64)
			req.sql = fmt.Sprintf("SELECT t, v FROM %s WHERE sid == '%s' && t >= %s && t < %s", relName, req.sid,
				strconv.FormatFloat(req.lo, 'f', 3, 64), strconv.FormatFloat(req.hi, 'f', 3, 64))
		}
		out = append(out, req)
	}
}

// serveSystem is one set-up of the service: a sealed store, the server
// and its HTTP listener.
type serveSystem struct {
	store  *segstore.Store
	srv    *serve.Server
	hs     *http.Server
	served chan struct{}
	url    string
	client *http.Client
	// ingested counts rows appended per sid by checked earlier phases.
	ingested map[string]int
}

// sealStore writes the reduced sequences into a new store under dir,
// one segment per signal, as extract -store-dir seals them. The seals
// are fsync-bound, so their time is reported as segstore.build_s and
// kept out of setup_s.
func sealStore(d *serveData, dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	st, err := segstore.Open(dir, trace.SignalSchema(), segstore.Options{Compress: true, Encodings: true})
	if err != nil {
		return fmt.Errorf("open store: %w", err)
	}
	for _, rows := range d.segs {
		if err := st.AppendSegment(rows); err != nil {
			return fmt.Errorf("seal: %w", err)
		}
	}
	return nil
}

// setupServe opens the sealed store under dir behind a new server and
// starts its HTTP listener.
func setupServe(dir string) (*serveSystem, error) {
	srv := &serve.Server{
		Exec: engine.NewLocal(workers),
		Catalog: serve.NewCatalog(&serve.Config{Tenants: map[string]*serve.TenantConfig{
			tenant: {Relations: map[string]string{relName: dir}},
		}}, segstore.Options{Compress: true, Encodings: true}),
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	sys := &serveSystem{srv: srv, hs: &http.Server{Handler: srv.Handler()}, served: make(chan struct{}),
		ingested: map[string]int{}}
	go func() {
		defer close(sys.served)
		_ = sys.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	sys.url = "http://" + ln.Addr().String()
	sys.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: workers, MaxIdleConnsPerHost: workers}}
	// The server's store handle: opening it here is part of set-up.
	if sys.store, err = srv.Catalog.Store(tenant, relName); err != nil {
		sys.close()
		return nil, err
	}
	return sys, nil
}

func (s *serveSystem) close() {
	s.client.CloseIdleConnections()
	_ = s.hs.Close()
	<-s.served
}

// post sends one request over HTTP and decodes the response into req.
func (s *serveSystem) post(req *request) {
	var path string
	var body any
	if req.kind == kIngest {
		path, body = "/ingest", map[string]any{"tenant": tenant, "relation": relName, "rows": req.rows}
	} else {
		path, body = "/query", map[string]string{"tenant": tenant, "sql": req.sql}
	}
	data, err := json.Marshal(body)
	if err != nil {
		req.err = err
		return
	}
	resp, err := s.client.Post(s.url+path, "application/json", bytes.NewReader(data))
	if err != nil {
		req.err = err
		return
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		req.err = err
		return
	}
	if resp.StatusCode != http.StatusOK {
		req.err = fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
		return
	}
	if req.kind == kIngest {
		var out struct {
			Rows int `json:"rows"`
		}
		req.err = json.Unmarshal(raw, &out)
		req.rowCount = out.Rows
		return
	}
	var out serve.Response
	if err := json.Unmarshal(raw, &out); err != nil {
		req.err = err
		return
	}
	req.fromResponse(&out)
}

func (req *request) fromResponse(out *serve.Response) {
	req.rowCount = out.RowCount
	if req.kind != kScan {
		return
	}
	req.counts = map[string]int{}
	for _, row := range out.Rows {
		if len(row) != 2 {
			req.err = fmt.Errorf("scan row has %d cells", len(row))
			return
		}
		sid, _ := row[0].(string)
		switch n := row[1].(type) {
		case float64:
			req.counts[sid] = int(n)
		case int64:
			req.counts[sid] = int(n)
		case int:
			req.counts[sid] = n
		default:
			req.err = fmt.Errorf("scan count %v has type %T", row[1], row[1])
		}
	}
}

// drive runs the open loop: a generator releases each request at its
// due time to whichever of the two client goroutines is free; while
// both are busy the request waits in the generator, and its latency,
// timed from the due time, includes that wait.
func (s *serveSystem) drive(ctx context.Context, reqs []*request) {
	work := make(chan *request)
	var wg sync.WaitGroup
	epoch := time.Now()
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for req := range work {
				req.sent = time.Since(epoch)
				s.post(req)
				req.done = time.Since(epoch)
			}
		}()
	}
	defer func() {
		close(work)
		wg.Wait()
	}()
	for _, req := range reqs {
		if wait := req.due - time.Since(epoch); wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
				return
			}
		}
		select {
		case work <- req:
		case <-ctx.Done():
			return
		}
	}
}

// check verifies every completed request against the reference and
// counts it. Scans must see every ingest of earlier phases and every one
// that finished before they were sent, and may see those sent before
// they finished.
func (d *serveData) check(reqs []*request, prior map[string]int, r *report) {
	defer func() {
		for _, in := range reqs {
			if in.kind == kIngest && in.err == nil && in.done > 0 {
				prior[in.sid] += len(in.rows)
			}
		}
	}()
	for _, req := range reqs {
		r.attempted++
		switch {
		case req.err != nil:
			r.fail("%s: %v", req.describe(), req.err)
		case req.done == 0:
			r.fail("%s: not sent before the run ended", req.describe())
		case req.kind == kLookup:
			if want := d.count(req.sid, req.lo, req.hi); req.rowCount != want {
				r.fail("%s: %d rows, reference %d", req.describe(), req.rowCount, want)
			}
		case req.kind == kIngest:
			if req.rowCount != len(req.rows) {
				r.fail("%s: stored %d rows of %d", req.describe(), req.rowCount, len(req.rows))
			}
		case req.kind == kScan:
			d.checkScan(req, reqs, prior, r)
		}
	}
}

func (d *serveData) checkScan(scan *request, reqs []*request, prior map[string]int, r *report) {
	lo, hi := map[string]int{}, map[string]int{}
	for _, sid := range d.sids {
		lo[sid] = len(d.times[sid]) + prior[sid]
		hi[sid] = lo[sid]
	}
	for _, in := range reqs {
		if in.kind != kIngest || in.err != nil || in.done == 0 {
			continue
		}
		if in.done < scan.sent {
			lo[in.sid] += len(in.rows)
		}
		if in.sent < scan.done {
			hi[in.sid] += len(in.rows)
		}
	}
	if len(scan.counts) != len(d.sids) {
		r.fail("%s: %d groups, reference %d", scan.describe(), len(scan.counts), len(d.sids))
		return
	}
	for sid, n := range scan.counts {
		if n < lo[sid] || n > hi[sid] {
			r.fail("%s: sid %s counted %d, reference %d..%d", scan.describe(), sid, n, lo[sid], hi[sid])
			return
		}
	}
}

func (req *request) describe() string {
	switch req.kind {
	case kIngest:
		return "ingest " + req.sid
	case kScan:
		return "scan"
	}
	return "lookup " + req.sql
}

// latencies returns the from-due latencies of one request kind, in ms.
func latencies(reqs []*request, k reqKind) []float64 {
	var out []float64
	for _, req := range reqs {
		if req.kind == k && req.done > 0 {
			out = append(out, float64(req.done-req.due)/1e6)
		}
	}
	return out
}

// storeShape records segment count, rows and the segments one lookup
// scans (from a probe lookup that bypasses the result cache).
func (s *serveSystem) storeShape(ctx context.Context, d *serveData, r *report, when string) error {
	reg := telemetry.Default()
	before := reg.CounterValue("segstore_segments_scanned_total")
	sql := fmt.Sprintf("SELECT t, v FROM %s WHERE sid == '%s' && t >= %g && t < %g", relName, d.sids[0], d.t0, d.t1)
	resp, err := s.srv.Query(ctx, tenant, sql, true)
	if err != nil {
		return fmt.Errorf("probe lookup: %w", err)
	}
	r.attempted++
	if want := d.count(d.sids[0], d.t0, d.t1); resp.RowCount != want {
		r.fail("probe lookup: %d rows, reference %d", resp.RowCount, want)
	}
	r.set("segstore.segments_"+when, float64(s.store.NumSegments()))
	r.set("segstore.rows_"+when, float64(s.store.Rows()))
	r.set("segstore.segments_scanned_per_lookup_"+when, float64(reg.CounterValue("segstore_segments_scanned_total")-before))
	return nil
}

func runServe(ctx context.Context, o options, r *report) error {
	d, err := prepareServeData(ctx, o.seed)
	if err != nil {
		return fmt.Errorf("prepare store data: %w", err)
	}
	r.note("inputs: LIG seed %d, %d K_b rows -> %d reduced rows in %d per-signal segments; %.0f req/s open loop, %d connections",
		o.seed, serveRows, d.rows, len(d.segs), serveRate, workers)
	storeDir := filepath.Join(o.outDir, "store")
	start := time.Now()
	if err := sealStore(d, storeDir); err != nil {
		return err
	}
	r.set("segstore.build_s", time.Since(start).Seconds())
	defer os.RemoveAll(storeDir)
	sys, err := measureSetup(r, func() (*serveSystem, error) { return setupServe(storeDir) })
	if err != nil {
		return err
	}
	defer sys.close()

	reqs := d.schedule(o.seed, o.seconds, serveRate)
	if err := sys.storeShape(ctx, d, r, "start"); err != nil {
		return err
	}
	reg := telemetry.Default()
	deferrals := reg.CounterValue("serve_admission_deferrals_total")
	steal := readSteal()
	heap := startHeapSampler(time.Second)
	sys.drive(ctx, reqs)
	peaks := heap.finish()
	r.set("harness.cpu_steal_share", steal.stealShare())
	r.set("serve.admission_deferrals", float64(reg.CounterValue("serve_admission_deferrals_total")-deferrals))
	if err := sys.storeShape(ctx, d, r, "end"); err != nil {
		return err
	}
	d.check(reqs, sys.ingested, r)

	lookups, scans, ingests := latencies(reqs, kLookup), latencies(reqs, kScan), latencies(reqs, kIngest)
	if len(lookups) == 0 || len(scans) == 0 {
		return fmt.Errorf("run too short: %d lookups, %d scans", len(lookups), len(scans))
	}
	lag := 0.0
	for _, req := range reqs {
		if l := float64(req.sent-req.due) / 1e6; req.done > 0 && l > lag {
			lag = l
		}
	}
	r.setN("p50_ms", median(lookups), len(lookups))
	r.setN("lookup_p50_ms", median(lookups), len(lookups))
	r.setN("lookup_p99_ms", quantile(lookups, 0.99), len(lookups))
	r.setN("scan_p50_ms", median(scans), len(scans))
	r.setN("scan_p90_ms", quantile(scans, 0.9), len(scans))
	r.setN("ingest_p50_ms", median(ingests), len(ingests))
	// Goodput: requests completed per second from the first due time
	// to the last completion. It stays near the offered rate until the
	// service falls behind. Capacity: queries completed per second of
	// service time with both connections busy; ingests are left out,
	// their fsync time belongs to the disk.
	busy, last := time.Duration(0), time.Duration(0)
	done, queries := 0, 0
	for _, req := range reqs {
		if req.done == 0 {
			continue
		}
		done++
		last = max(last, req.done)
		if req.kind != kIngest {
			busy += req.done - req.sent
			queries++
		}
	}
	capacity := float64(queries) / busy.Seconds() * workers
	r.setN("rate_per_s", float64(done)/(last-reqs[0].due).Seconds(), done)
	r.set("serve.query_capacity_per_s", capacity)
	r.setN("peak_live_heap_mb", median(peaks), len(peaks))
	r.set("harness.gen_lag_ms_max", lag)
	r.note("generator lag max %.3f ms; query capacity %.1f req/s; live heap max %.1f MB", lag, capacity, maxOf(peaks))
	if !o.trace {
		return nil
	}
	r.set("max_qps_in_slo", sys.ladder(ctx, d, o.seed, r))
	return tracedServe(ctx, o, d, reqs, median(lookups), r)
}

// The latency limit and rate ladder of max_qps_in_slo. At the nominal
// 200 req/s the lookup p99 read 6-31 ms across seeds on a 2-core host,
// so the limit leaves headroom for that spread; the rungs step from the
// nominal rate towards the ~1100 req/s service capacity of the mix.
const (
	sloP99MS   = 50.0
	sloLagMS   = 10.0 // median generator lag allowed over a rung's last quarter
	rungSecond = 5.0
)

var ladderRates = []float64{200, 300, 450, 650, 900}

// ladder offers each rate in turn and returns the highest at which the
// lookup p99 from due time meets sloP99MS without a growing backlog
// (the generator still sends the last quarter of the rung on time). It
// stops at the first rung that misses; 0 means none met the limit.
func (s *serveSystem) ladder(ctx context.Context, d *serveData, seed int64, r *report) float64 {
	best := 0.0
	for i, rate := range ladderRates {
		reqs := d.schedule(seed*100+int64(i), rungSecond, rate)
		s.drive(ctx, reqs)
		d.check(reqs, s.ingested, r)
		p99 := quantile(latencies(reqs, kLookup), 0.99)
		var lags []float64
		for _, req := range reqs[len(reqs)*3/4:] {
			lags = append(lags, float64(req.sent-req.due)/1e6)
		}
		lag := median(lags)
		r.note("ladder %4.0f req/s: lookup p99 %.2f ms, late-quarter generator lag %.2f ms", rate, p99, lag)
		if p99 > sloP99MS || lag > sloLagMS {
			break
		}
		best = rate
	}
	return best
}

// replay sends the statement stream through Server.Query in-process,
// one request at a time, on a fresh set-up, with a span per request
// when rec is non-nil. It returns the wall time of the replay and the
// in-process lookup latencies in ms.
func replay(ctx context.Context, d *serveData, dir string, reqs []*request, rec *recorder, r *report) (time.Duration, []float64, []float64, error) {
	if err := sealStore(d, dir); err != nil {
		return 0, nil, nil, err
	}
	defer os.RemoveAll(dir)
	sys, err := setupServe(dir)
	if err != nil {
		return 0, nil, nil, err
	}
	defer sys.close()
	copies := make([]*request, len(reqs))
	var lookupMS, sealMS []float64
	epoch := time.Now()
	for i, orig := range reqs {
		req := *orig
		req.err, req.counts, req.rowCount = nil, nil, 0
		copies[i] = &req
		var sp *span
		if rec != nil {
			sp = rec.start("serve.request", nil)
		}
		req.sent = time.Since(epoch)
		if req.kind == kIngest {
			rows := make([]relation.Row, len(req.rows))
			for j, c := range req.rows {
				rows[j] = relation.Row{relation.Float(c[0].(float64)), relation.Str(req.sid),
					relation.Float(c[2].(float64)), relation.Str(c[3].(string))}
			}
			start := time.Now()
			if err := sys.store.AppendSegment(rows); err != nil {
				req.err = err
			}
			sealMS = append(sealMS, float64(time.Since(start))/1e6)
			req.rowCount = len(rows)
		} else {
			start := time.Now()
			resp, err := sys.srv.Query(ctx, tenant, req.sql, false)
			if err != nil {
				req.err = err
			} else {
				req.fromResponse(resp)
			}
			if req.kind == kLookup {
				lookupMS = append(lookupMS, float64(time.Since(start))/1e6)
			}
		}
		req.done = time.Since(epoch)
		if sp != nil {
			sp.Attrs = map[string]string{"kind": req.describe()}
			sp.finish()
		}
	}
	wall := time.Since(epoch)
	d.check(copies, sys.ingested, r)
	return wall, lookupMS, sealMS, nil
}

func tracedServe(ctx context.Context, o options, d *serveData, reqs []*request, httpLookupP50 float64, r *report) error {
	reg := telemetry.Default()
	plainWall, _, _, err := replay(ctx, d, filepath.Join(o.outDir, "store-plain"), reqs, nil, r)
	if err != nil {
		return err
	}
	counters := []string{
		"serve_result_cache_hits_total", "serve_result_cache_misses_total",
		"serve_plan_cache_hits_total", "serve_plan_cache_misses_total",
		"segstore_segments_scanned_total", "segstore_segments_pruned_total", "segstore_bytes_decoded_total",
	}
	before := map[string]int64{}
	for _, c := range counters {
		before[c] = reg.CounterValue(c)
	}
	rec := newRecorder()
	tracedWall, lookupMS, sealMS, err := replay(ctx, d, filepath.Join(o.outDir, "store-traced"), reqs, rec, r)
	if err != nil {
		return err
	}
	delta := map[string]float64{}
	for _, c := range counters {
		delta[c] = float64(reg.CounterValue(c) - before[c])
	}
	ratio := func(a, b float64) float64 {
		if a+b == 0 {
			return 0
		}
		return a / (a + b)
	}
	r.set("trace.overhead_ratio", tracedWall.Seconds()/plainWall.Seconds())
	var covered time.Duration
	for _, s := range rec.spans {
		covered += s.dur()
	}
	r.set("trace.coverage", covered.Seconds()/tracedWall.Seconds())
	r.set("serve.query_p50_ms", median(lookupMS))
	r.set("serve.http_overhead_ms", httpLookupP50-median(lookupMS))
	r.set("serve.result_cache_hit_ratio", ratio(delta["serve_result_cache_hits_total"], delta["serve_result_cache_misses_total"]))
	r.set("serve.plan_cache_hit_ratio", ratio(delta["serve_plan_cache_hits_total"], delta["serve_plan_cache_misses_total"]))
	r.set("segstore.prune_ratio", ratio(delta["segstore_segments_pruned_total"], delta["segstore_segments_scanned_total"]))
	if n := delta["serve_result_cache_misses_total"]; n > 0 {
		r.set("segstore.bytes_decoded_per_query", delta["segstore_bytes_decoded_total"]/n)
	}
	r.set("segstore.seal_ms_p50", median(sealMS))

	// Statement repeats, and parse and compile timed apart from the
	// server's plan cache.
	seen := map[string]bool{}
	repeats, lookups := 0, 0
	var parseUS, compileUS []float64
	schema := trace.SignalSchema()
	schemas := func(string) (relation.Schema, error) { return schema, nil }
	for _, req := range reqs {
		if req.kind != kLookup {
			continue
		}
		lookups++
		if seen[req.sql] {
			repeats++
			continue
		}
		seen[req.sql] = true
		sp := rec.start("query.Parse", nil)
		q, err := query.Parse(req.sql)
		sp.finish()
		if err != nil {
			return fmt.Errorf("parse %q: %w", req.sql, err)
		}
		cp := rec.start("query.Compile", nil)
		_, err = query.Compile(q, schemas)
		cp.finish()
		if err != nil {
			return fmt.Errorf("compile %q: %w", req.sql, err)
		}
		parseUS = append(parseUS, float64(sp.dur())/1e3)
		compileUS = append(compileUS, float64(cp.dur())/1e3)
	}
	r.set("serve.repeat_share", float64(repeats)/float64(lookups))
	r.set("query.parse_us", median(parseUS))
	r.set("query.compile_us", median(compileUS))
	path, err := rec.write(o.outDir, o.workload)
	if err != nil {
		return err
	}
	r.note("spans: %s", path)
	return nil
}
