package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ivnt/internal/colcodec"
	"ivnt/internal/engine"
	"ivnt/internal/relation"
	"ivnt/internal/telemetry"
)

// Driver distributes engine stages across remote executors. It
// implements engine.Executor, so every pipeline in the framework runs
// unchanged either locally or on a cluster — the property the paper
// gets from targeting Spark. The driver survives every single-node
// failure mode without aborting a stage: stalled connections hit
// per-task deadlines, dropped connections are re-established with
// capped exponential backoff, and straggler tasks are speculatively
// re-executed on other executors (first result wins).
type Driver struct {
	// Addrs are executor addresses ("host:port").
	Addrs []string
	// SlotsPerExecutor is how many concurrent task connections the
	// driver opens per executor (the paper's "5 cores per executor").
	// Default 1.
	SlotsPerExecutor int
	// MaxRetries is how often a task is re-dispatched after a transport
	// failure before the stage aborts. Default 2.
	MaxRetries int
	// DialTimeout bounds connection establishment and the handshake.
	// Default 5s.
	DialTimeout time.Duration
	// TaskTimeout bounds one task round trip (send + remote compute +
	// receive) on a slot connection. A deadline hit counts in
	// Stats.DeadlineHits and requeues the task like any other transport
	// failure. 0 means the 2m default; negative disables deadlines.
	TaskTimeout time.Duration
	// ReconnectBase and ReconnectMax shape the capped exponential
	// backoff (with jitter) between reconnection attempts of a slot.
	// Defaults 50ms and 2s.
	ReconnectBase time.Duration
	ReconnectMax  time.Duration
	// SlotFailureLimit is how many consecutive dial/transport failures a
	// slot tolerates before it retires for the remainder of the stage (a
	// persistently dead executor must not spin forever, and the stage
	// must be able to report "undeliverable" when every slot is gone).
	// Any successfully completed task resets the counter. The default 8
	// gives a restarting executor a multi-second window to rejoin.
	SlotFailureLimit int
	// SpeculationFactor k: a task whose runtime exceeds k× the median
	// completed-task duration is re-dispatched speculatively; the first
	// result wins and duplicates are discarded by task epoch. 0 means
	// the default 3; negative disables speculation.
	SpeculationFactor float64
	// SpeculationMin is the floor on the straggler threshold, so
	// microsecond medians do not trigger spurious re-execution.
	// Default 100ms.
	SpeculationMin time.Duration
	// SpeculationInterval is how often the straggler monitor scans
	// in-flight tasks. Default 25ms.
	SpeculationInterval time.Duration
	// MaxSpeculation bounds speculative launches per task. Default 2.
	MaxSpeculation int
	// PanicRetryLimit is how many contained executor panics one task
	// tolerates before the driver quarantines it as poisoned and fails
	// the stage with a diagnostic (a deterministic panic must not burn
	// the whole retry budget executor by executor). Default 2.
	PanicRetryLimit int
	// AdmissionThreshold is the executor memory pressure (used/budget,
	// reported in result frames) above which the driver defers further
	// dispatch on that slot by AdmissionPause, letting the executor
	// drain instead of piling on. 0 means the 0.85 default; negative
	// disables admission control.
	AdmissionThreshold float64
	// AdmissionPause is how long a pressured slot waits before taking
	// its next task. Default 20ms.
	AdmissionPause time.Duration
	// Compress runs columnar partition and broadcast-table payloads
	// through DEFLATE (stdlib flate) before they hit the wire. Worth it
	// for string-heavy traces crossing real networks; pure CPU overhead
	// on loopback. Executors auto-detect the flag per payload and
	// mirror it on results.
	Compress bool
	// CompressLevel selects the DEFLATE effort for driver-side payload
	// encodes when Compress is set. 0 means flate.BestSpeed — wire
	// compression is latency-bound, so the fast level is the default —
	// and any valid flate level (including flate.BestCompression for
	// bandwidth-starved links) passes through unchanged.
	CompressLevel int
	// Tracer, when set, records one span per stage plus one child span
	// per task, with lifecycle events (queued, shipped, decoded,
	// executed, merged) and fault events (task_retry, reconnect,
	// speculation, deadline_hit). Nil disables tracing; every span
	// operation on nil is a no-op.
	Tracer *telemetry.Tracer
	// Tasks, when set, mirrors per-task scheduling state into a live
	// table — what the /tasks introspection endpoint serves. Nil
	// disables it.
	Tasks *telemetry.TaskTable

	// ShufflePeers overrides the endpoint map executors use for
	// executor-to-executor shuffle pushes (protocol v4). Entry i is how
	// peers reach the executor at Addrs[i]; default is Addrs itself.
	// Chaos tests point entries at fault proxies so only peer links see
	// injected faults while driver connections stay clean.
	ShufflePeers []string
	// ShufflePushTimeout bounds one peer push round trip on the map
	// side, distributed to executors in shuffle begin frames. 0 leaves
	// the executors' own default (30s).
	ShufflePushTimeout time.Duration
	// ShuffleParts is the default shuffle fan-out when a plan does not
	// pick one. 0 means 2× the executor count (at least 2).
	ShuffleParts int

	// Persistent keeps executor connections open across stages instead
	// of dialing per stage: a slot that finishes a stage cleanly
	// returns its connection — with the stage-once sentStages and
	// sentTables caches warm — to a per-address pool the next stage
	// checks out of. This is the resident mode the query service runs
	// the driver in (many stages over one daemon lifetime); batch runs
	// keep the default dial-per-stage lifecycle. Close releases the
	// pool. A pooled connection whose executor died is detected on
	// first use and handled by the ordinary reconnect machinery.
	Persistent bool

	// live points at the stats collector of the most recent RunStage so
	// introspection can snapshot counters while a stage is running.
	live atomic.Pointer[engine.StatsCollector]

	poolMu     sync.Mutex
	pool       map[string][]*conn
	poolClosed bool
}

// checkoutConn pops a pooled connection for addr (nil when the pool is
// empty, closed, or the driver is not Persistent).
func (d *Driver) checkoutConn(addr string) *conn {
	if !d.Persistent {
		return nil
	}
	d.poolMu.Lock()
	defer d.poolMu.Unlock()
	l := d.pool[addr]
	if len(l) == 0 {
		return nil
	}
	c := l[len(l)-1]
	d.pool[addr] = l[:len(l)-1]
	return c
}

// stashConn returns a healthy connection to the pool, reporting whether
// it was kept (false: caller must close it).
func (d *Driver) stashConn(addr string, c *conn) bool {
	if !d.Persistent {
		return false
	}
	d.poolMu.Lock()
	defer d.poolMu.Unlock()
	if d.poolClosed || len(d.pool[addr]) >= d.slots() {
		return false
	}
	if d.pool == nil {
		d.pool = map[string][]*conn{}
	}
	d.pool[addr] = append(d.pool[addr], c)
	return true
}

// Close closes every pooled connection and stops further pooling. Only
// meaningful for Persistent drivers; idempotent.
func (d *Driver) Close() {
	d.poolMu.Lock()
	conns := d.pool
	d.pool = nil
	d.poolClosed = true
	d.poolMu.Unlock()
	for _, l := range conns {
		for _, c := range l {
			c.close()
		}
	}
}

// LiveStats returns a point-in-time snapshot of the most recent
// stage's counters — safe to call concurrently with RunStage. Zero
// before the first stage starts.
func (d *Driver) LiveStats() engine.Stats {
	if c := d.live.Load(); c != nil {
		return c.Snapshot()
	}
	return engine.Stats{}
}

// Name implements engine.Executor.
func (d *Driver) Name() string {
	return fmt.Sprintf("cluster[%d executors x %d slots]", len(d.Addrs), d.slots())
}

func (d *Driver) slots() int {
	if d.SlotsPerExecutor > 0 {
		return d.SlotsPerExecutor
	}
	return 1
}

func (d *Driver) retries() int {
	if d.MaxRetries > 0 {
		return d.MaxRetries
	}
	return 2
}

func (d *Driver) dialTimeout() time.Duration {
	if d.DialTimeout > 0 {
		return d.DialTimeout
	}
	return 5 * time.Second
}

func (d *Driver) taskTimeout() time.Duration {
	switch {
	case d.TaskTimeout > 0:
		return d.TaskTimeout
	case d.TaskTimeout < 0:
		return 0
	default:
		return 2 * time.Minute
	}
}

func (d *Driver) reconnectBase() time.Duration {
	if d.ReconnectBase > 0 {
		return d.ReconnectBase
	}
	return 50 * time.Millisecond
}

func (d *Driver) reconnectMax() time.Duration {
	if d.ReconnectMax > 0 {
		return d.ReconnectMax
	}
	return 2 * time.Second
}

func (d *Driver) slotFailureLimit() int {
	if d.SlotFailureLimit > 0 {
		return d.SlotFailureLimit
	}
	return 8
}

func (d *Driver) speculationFactor() float64 {
	switch {
	case d.SpeculationFactor > 0:
		return d.SpeculationFactor
	case d.SpeculationFactor < 0:
		return 0
	default:
		return 3
	}
}

func (d *Driver) speculationMin() time.Duration {
	if d.SpeculationMin > 0 {
		return d.SpeculationMin
	}
	return 100 * time.Millisecond
}

func (d *Driver) speculationInterval() time.Duration {
	if d.SpeculationInterval > 0 {
		return d.SpeculationInterval
	}
	return 25 * time.Millisecond
}

func (d *Driver) maxSpeculation() int {
	if d.MaxSpeculation > 0 {
		return d.MaxSpeculation
	}
	return 2
}

func (d *Driver) panicRetryLimit() int {
	if d.PanicRetryLimit > 0 {
		return d.PanicRetryLimit
	}
	return 2
}

func (d *Driver) admissionThreshold() float64 {
	switch {
	case d.AdmissionThreshold > 0:
		return d.AdmissionThreshold
	case d.AdmissionThreshold < 0:
		return 0
	default:
		return 0.85
	}
}

func (d *Driver) admissionPause() time.Duration {
	if d.AdmissionPause > 0 {
		return d.AdmissionPause
	}
	return 20 * time.Millisecond
}

// backoff returns the sleep before reconnection attempt number fails
// (1-based): capped exponential with ±50% jitter.
func (d *Driver) backoff(fails int) time.Duration {
	b := d.reconnectBase()
	max := d.reconnectMax()
	for i := 1; i < fails && b < max; i++ {
		b *= 2
	}
	if b > max {
		b = max
	}
	half := int64(b / 2)
	if half <= 0 {
		return b
	}
	return time.Duration(half + rand.Int63n(half+1))
}

// The driver schedules stages straight from segment files when the
// scan source can name them (engine.ScanStage wires the two up).
var _ engine.SegmentExecutor = (*Driver)(nil)

// inflightInfo tracks the live dispatches of one task: how many copies
// are out (original + speculative) and when the oldest was launched.
type inflightInfo struct {
	n     int
	start time.Time
}

// stageRun is the shared scheduling state of one RunStage call. Tasks
// are partition indexes flowing through work; pending counts tasks not
// yet completed. Slots survive transport failures by reconnecting; the
// stage fails only when a task exhausts its retry budget, the context
// is cancelled, or every slot has retired with work outstanding.
type stageRun struct {
	rel      *relation.Relation
	outParts [][]relation.Row

	// segs, when non-nil, marks a segment-scheduled stage
	// (RunSegmentStage): task pi reads segs[pi] on the executor instead
	// of receiving rel.Partitions[pi] over the wire. rel is then a
	// placeholder carrying only the scan schema; pruned refs are
	// committed driver-side before any slot starts, using prunedPipe —
	// the stage compiled from the ORIGINAL ops (opsWire has broadcast
	// rows stripped and is only compilable on an executor).
	segs       []engine.SegmentRef
	prunedPipe *engine.StagePipeline

	// v3 stage shipment, prepared once per RunStage: the stage's
	// content fingerprint, the pipeline with broadcast rows stripped
	// (replaced by table-hash references), the columnar-encoded
	// broadcast tables, and the output schema results decode against.
	fp        uint64
	opsWire   []engine.OpDesc
	tables    []tableMsg
	outSchema relation.Schema
	compress  bool
	level     int

	mu        sync.Mutex
	work      chan int
	closed    bool
	pending   int
	done      []bool
	attempts  []int
	epoch     []int
	specs     []int
	panics    []int
	inflight  map[int]inflightInfo
	durations []time.Duration
	// encParts caches each partition's columnar encoding so retries and
	// speculative copies reuse the bytes instead of re-encoding.
	encParts [][]byte

	// stats is the single accumulation point for this stage's counters:
	// slots and the speculation monitor write through its atomics, the
	// final engine.Stats is its snapshot, and Driver.LiveStats snapshots
	// it mid-flight. No counter lives behind sr.mu.
	stats *engine.StatsCollector

	// stageSpan/spans carry the stage's trace; nil when tracing is off
	// (all span operations on nil are no-ops). tasks mirrors scheduling
	// state for /tasks; nil-safe the same way.
	stageSpan *telemetry.Span
	spans     []*telemetry.Span
	tasks     *telemetry.TaskTable

	firstErr error
	cancel   context.CancelFunc
}

// spanFor returns the trace span of task pi, or nil when tracing is
// off.
func (sr *stageRun) spanFor(pi int) *telemetry.Span {
	if sr.spans == nil {
		return nil
	}
	return sr.spans[pi]
}

// closeWorkLocked closes the work channel exactly once; callers hold
// sr.mu.
func (sr *stageRun) closeWorkLocked() {
	if !sr.closed {
		sr.closed = true
		close(sr.work)
	}
}

func (sr *stageRun) finished() bool {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	return sr.closed
}

func (sr *stageRun) fail(err error) {
	sr.mu.Lock()
	if sr.firstErr == nil {
		sr.firstErr = err
	}
	sr.closeWorkLocked()
	sr.mu.Unlock()
	sr.cancel()
}

func (sr *stageRun) noteReconnect(addr string) {
	sr.stats.Reconnects.Add(1)
	mReconnects.With(addr).Inc()
	sr.stageSpan.Event("reconnect", telemetry.A("addr", addr))
}

func (sr *stageRun) noteDeadline(pi int) {
	sr.stats.DeadlineHits.Add(1)
	mDeadlineHits.Inc()
	sr.spanFor(pi).Event("deadline_hit")
}

func (sr *stageRun) noteStageShipped() {
	sr.stats.StagesShipped.Add(1)
	mStagesShipped.Inc()
}

// notePanic counts a contained executor panic against task pi and
// returns the new total; the slot quarantines the task once it reaches
// the driver's panic retry limit.
func (sr *stageRun) notePanic(pi int) int {
	sr.mu.Lock()
	sr.panics[pi]++
	n := sr.panics[pi]
	sr.mu.Unlock()
	mTaskPanics.Inc()
	sr.spanFor(pi).Event("task_panic", telemetry.A("count", n))
	return n
}

// noteAdmissionDeferral records one pressure-induced dispatch pause.
func (sr *stageRun) noteAdmissionDeferral(addr string) {
	sr.stats.AdmissionDeferrals.Add(1)
	mAdmissionDeferrals.Inc()
	sr.stageSpan.Event("admission_deferral", telemetry.A("addr", addr))
}

func (sr *stageRun) noteDecode(d time.Duration) {
	sr.stats.DecodeNs.Add(int64(d))
}

// harvestBytes folds a connection's byte counters into the stage
// totals; called exactly once per connection, when it is closed.
func (sr *stageRun) harvestBytes(c *conn) {
	w, r := c.takeCounts()
	sr.stats.BytesSent.Add(w)
	sr.stats.BytesRecv.Add(r)
	mBytesSent.Add(w)
	mBytesRecv.Add(r)
}

// encodedPartition returns (caching) the columnar encoding of partition
// pi. Re-dispatches of a task (retries, speculation) reuse the bytes.
func (sr *stageRun) encodedPartition(pi int) ([]byte, error) {
	sr.mu.Lock()
	if b := sr.encParts[pi]; b != nil {
		sr.mu.Unlock()
		return b, nil
	}
	sr.mu.Unlock()
	start := time.Now()
	b, err := colcodec.Encode(sr.rel.Schema, sr.rel.Partitions[pi], colcodec.Options{Compress: sr.compress, Level: sr.level})
	if err != nil {
		return nil, err
	}
	sr.stats.EncodeNs.Add(int64(time.Since(start)))
	sr.mu.Lock()
	if sr.encParts[pi] == nil {
		sr.encParts[pi] = b
	} else {
		b = sr.encParts[pi] // lost a benign double-encode race
	}
	sr.mu.Unlock()
	return b, nil
}

// dispatch registers one launch of task pi and returns its epoch. A
// task that already completed (e.g. a stale speculative queue entry)
// is not dispatched again.
func (sr *stageRun) dispatch(pi int) (epoch int, ok bool) {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	if sr.closed || sr.done[pi] {
		return 0, false
	}
	sr.epoch[pi]++
	fl := sr.inflight[pi]
	if fl.n == 0 {
		fl.start = time.Now()
	}
	fl.n++
	sr.inflight[pi] = fl
	mInflight.Add(1)
	return sr.epoch[pi], true
}

// commit records a completed task. The first result for a partition
// wins; duplicates from speculative copies are discarded.
func (sr *stageRun) commit(pi int, rows []relation.Row) {
	sr.mu.Lock()
	started := sr.dropInflightLocked(pi)
	if sr.done[pi] || sr.closed {
		sr.mu.Unlock()
		return
	}
	sr.done[pi] = true
	sr.outParts[pi] = rows
	if !started.IsZero() {
		sr.durations = append(sr.durations, time.Since(started))
	}
	sr.pending--
	finished := sr.pending == 0
	if finished {
		sr.closeWorkLocked()
	}
	sr.mu.Unlock()
	if !started.IsZero() {
		engine.ObserveTask("cluster", time.Since(started))
	}
	sp := sr.spanFor(pi)
	sp.Event("merged")
	sp.End()
	sr.tasks.Done(pi)
	if finished {
		// Unblock slots whose connections are mid-read (e.g. a stalled
		// executor that lost the speculation race).
		sr.cancel()
	}
}

func (sr *stageRun) dropInflightLocked(pi int) time.Time {
	fl, ok := sr.inflight[pi]
	if !ok {
		return time.Time{}
	}
	start := fl.start
	fl.n--
	if fl.n <= 0 {
		delete(sr.inflight, pi)
	} else {
		sr.inflight[pi] = fl
	}
	mInflight.Add(-1)
	return start
}

// abandon records a transport failure of one launch of task pi and
// requeues the task unless another copy is still in flight or the
// retry budget is exhausted (which fails the stage).
func (sr *stageRun) abandon(pi, maxRetries int, cause error, addr string) {
	sr.mu.Lock()
	sr.dropInflightLocked(pi)
	if sr.done[pi] || sr.closed {
		sr.mu.Unlock()
		return
	}
	sr.attempts[pi]++
	sr.stats.Retries.Add(1)
	attempts := sr.attempts[pi]
	tooMany := attempts > maxRetries
	if !tooMany {
		if fl, live := sr.inflight[pi]; !live || fl.n <= 0 {
			sr.work <- pi
		}
	}
	sr.mu.Unlock()
	mRetries.Inc()
	sr.spanFor(pi).Event("task_retry",
		telemetry.A("attempt", attempts), telemetry.A("addr", addr), telemetry.A("cause", cause.Error()))
	sr.tasks.Retrying(pi)
	if tooMany {
		sr.fail(fmt.Errorf("cluster: partition %d failed %d times (last on %s): %w", pi, attempts, addr, cause))
	}
}

// speculate is the straggler monitor: any task whose oldest in-flight
// copy has been running longer than factor× the median completed-task
// duration (floored at min) is re-enqueued, up to maxPer copies.
func (sr *stageRun) speculate(ctx context.Context, factor float64, min, interval time.Duration, maxPer int) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		sr.mu.Lock()
		if sr.closed {
			sr.mu.Unlock()
			return
		}
		med := medianDuration(sr.durations)
		if med <= 0 {
			sr.mu.Unlock()
			continue
		}
		thr := time.Duration(factor * float64(med))
		if thr < min {
			thr = min
		}
		now := time.Now()
		var launched []int
		for pi, fl := range sr.inflight {
			if fl.n == 1 && !sr.done[pi] && sr.specs[pi] < maxPer && now.Sub(fl.start) > thr {
				sr.specs[pi]++
				sr.stats.Speculative.Add(1)
				sr.work <- pi
				launched = append(launched, pi)
			}
		}
		sr.mu.Unlock()
		for _, pi := range launched {
			mSpeculative.Inc()
			sr.stageSpan.Event("speculation", telemetry.A("task", pi))
			sr.tasks.Speculative(pi)
		}
	}
}

func medianDuration(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	c := make([]time.Duration, len(ds))
	copy(c, ds)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	return c[len(c)/2]
}

// RunStage implements engine.Executor: each partition becomes one task,
// dispatched over a pool of executor connections; results reassemble in
// partition order so the stage is deterministic.
func (d *Driver) RunStage(ctx context.Context, rel *relation.Relation, ops []engine.OpDesc) (*relation.Relation, engine.Stats, error) {
	start := time.Now()
	if len(d.Addrs) == 0 {
		return nil, engine.Stats{}, fmt.Errorf("cluster: driver has no executor addresses")
	}
	// Validate the plan on the driver before shipping anything.
	outSchema, err := engine.OutputSchema(rel.Schema, ops)
	if err != nil {
		return nil, engine.Stats{}, err
	}

	// Prepare the stage shipment once: fingerprint the stage, strip
	// broadcast tables out of the pipeline (they ship separately, keyed
	// by content hash, at most once per connection), and columnar-encode
	// each distinct table a single time for the whole stage.
	fp, opsWire, tables, err := d.stageWire(rel.Schema, ops)
	if err != nil {
		return nil, engine.Stats{}, err
	}

	sr := d.newStageRun(rel, fp, opsWire, tables, outSchema)
	return d.drive(ctx, sr, start, rel.NumRows())
}

// RunSegmentStage implements engine.SegmentExecutor: the same
// scheduling machinery as RunStage, except tasks name segment files
// (taskMsg.SegPath/SegCols) instead of carrying encoded partitions —
// executors read their own segment, so the driver never decodes or
// ships scan input. refs[i] becomes partition i; refs whose zone maps
// pruned them are committed driver-side as the stage pipeline applied
// to an empty partition, which keeps partition indexes stable and the
// output bitwise-equal to a full scan (aggregations over empty input
// produce the same rows either way, because the pushed filter provably
// empties those segments mid-pipeline).
func (d *Driver) RunSegmentStage(ctx context.Context, refs []engine.SegmentRef, schema relation.Schema, ops []engine.OpDesc) (*relation.Relation, engine.Stats, error) {
	start := time.Now()
	if len(d.Addrs) == 0 {
		return nil, engine.Stats{}, fmt.Errorf("cluster: driver has no executor addresses")
	}
	outSchema, err := engine.OutputSchema(schema, ops)
	if err != nil {
		return nil, engine.Stats{}, err
	}
	fp, opsWire, tables, err := d.stageWire(schema, ops)
	if err != nil {
		return nil, engine.Stats{}, err
	}
	// Placeholder input relation: it carries the scan schema for the
	// stage shipment; its (empty) partitions are never encoded because
	// sendTask ships segment paths for this stage.
	rel := &relation.Relation{Schema: schema, Partitions: make([][]relation.Row, len(refs))}
	sr := d.newStageRun(rel, fp, opsWire, tables, outSchema)
	sr.segs = refs
	for _, ref := range refs {
		if ref.Pruned {
			pipe, _, err := engine.CompileStage(schema, ops)
			if err != nil {
				return nil, engine.Stats{}, err
			}
			sr.prunedPipe = pipe
			break
		}
	}
	rowsIn := 0
	for _, ref := range refs {
		if !ref.Pruned {
			rowsIn += ref.Rows
		}
	}
	return d.drive(ctx, sr, start, rowsIn)
}

// newStageRun builds the scheduling state shared by RunStage and
// RunSegmentStage. The work channel capacity covers every task being
// requeued up to the retry budget plus every speculative launch, so no
// send ever blocks.
func (d *Driver) newStageRun(rel *relation.Relation, fp uint64, opsWire []engine.OpDesc, tables []tableMsg, outSchema relation.Schema) *stageRun {
	nParts := len(rel.Partitions)
	return &stageRun{
		rel:       rel,
		fp:        fp,
		opsWire:   opsWire,
		tables:    tables,
		outSchema: outSchema,
		compress:  d.Compress,
		level:     d.CompressLevel,
		outParts:  make([][]relation.Row, nParts),
		work:      make(chan int, nParts*(d.retries()+d.maxSpeculation()+2)),
		pending:   nParts,
		done:      make([]bool, nParts),
		attempts:  make([]int, nParts),
		epoch:     make([]int, nParts),
		specs:     make([]int, nParts),
		panics:    make([]int, nParts),
		encParts:  make([][]byte, nParts),
		inflight:  make(map[int]inflightInfo),
		stats:     engine.NewStatsCollector(),
		tasks:     d.Tasks,
	}
}

// drive runs a prepared stage to completion: spans, pruned-partition
// pre-commit, work distribution, slot pool, speculation, and the final
// stats fold. rowsIn is the stage's input row count (the driver cannot
// derive it for segment stages, whose partitions never materialize
// here).
func (d *Driver) drive(ctx context.Context, sr *stageRun, start time.Time, rowsIn int) (*relation.Relation, engine.Stats, error) {
	nParts := len(sr.outParts)
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	sr.cancel = cancel
	d.live.Store(sr.stats)
	fpHex := fmt.Sprintf("%016x", sr.fp)
	if d.Tracer.Enabled() {
		sr.stageSpan = d.Tracer.StartSpan("stage "+fpHex,
			telemetry.A("partitions", nParts), telemetry.A("executor", d.Name()))
		sr.spans = make([]*telemetry.Span, nParts)
		for pi := range sr.spans {
			sr.spans[pi] = sr.stageSpan.Child(fmt.Sprintf("task %d", pi), telemetry.A("stage", fpHex))
			sr.spans[pi].Event("queued")
		}
	}
	defer sr.stageSpan.End()
	d.Tasks.BeginStage(fpHex, d.Name(), nParts)

	// Pruned segments complete before any slot dials: their output is
	// the stage pipeline over an empty partition, computed on the
	// driver. Each pruned partition gets its own ApplyContained call so
	// no output rows alias across partitions.
	live := 0
	for pi := 0; pi < nParts; pi++ {
		if sr.segs != nil && sr.segs[pi].Pruned {
			rows, err := sr.prunedPipe.ApplyContained(nil)
			if err != nil {
				return nil, engine.Stats{}, err
			}
			sr.mu.Lock()
			sr.done[pi] = true
			sr.outParts[pi] = rows
			sr.pending--
			sr.mu.Unlock()
			if sp := sr.spanFor(pi); sp != nil {
				sp.Event("pruned")
				sp.End()
			}
			sr.tasks.Done(pi)
			continue
		}
		sr.work <- pi
		live++
	}
	if live == 0 {
		sr.mu.Lock()
		sr.closeWorkLocked()
		sr.mu.Unlock()
	}

	if f := d.speculationFactor(); f > 0 && live > 0 {
		go sr.speculate(cctx, f, d.speculationMin(), d.speculationInterval(), d.maxSpeculation())
	}

	var wg sync.WaitGroup
	for _, addr := range d.Addrs {
		for s := 0; s < d.slots(); s++ {
			wg.Add(1)
			go func(addr string) {
				defer wg.Done()
				d.runSlot(cctx, addr, sr)
			}(addr)
		}
	}
	wg.Wait()

	sr.mu.Lock()
	firstErr, pending := sr.firstErr, sr.pending
	sr.mu.Unlock()
	st := sr.stats.Snapshot()
	// A user cancellation must surface as such, not as a transport
	// failure or an "undeliverable" stage.
	if ctx.Err() != nil {
		return nil, engine.Stats{}, ctx.Err()
	}
	if firstErr != nil {
		return nil, engine.Stats{}, firstErr
	}
	if pending > 0 {
		return nil, engine.Stats{}, fmt.Errorf("cluster: %d partition(s) undeliverable: no executor reachable", pending)
	}
	out := &relation.Relation{Schema: sr.outSchema, Partitions: sr.outParts}
	st.RowsIn = rowsIn
	st.RowsOut = out.NumRows()
	st.Partitions = nParts
	st.Wall = time.Since(start)
	st.Tasks = nParts
	// Fold the driver-computed fields back so LiveStats sees complete
	// totals after the stage ends.
	sr.stats.RowsIn.Store(int64(st.RowsIn))
	sr.stats.RowsOut.Store(int64(st.RowsOut))
	sr.stats.Partitions.Store(int64(st.Partitions))
	sr.stats.WallNs.Store(int64(st.Wall))
	sr.stats.Tasks.Store(int64(st.Tasks))
	engine.ObserveStage("cluster", st)
	return out, st, nil
}

// stageWire prepares one stage's v3 shipment: the content fingerprint,
// the pipeline with broadcast-table rows stripped (replaced by
// content-hash references), and each distinct table columnar-encoded
// once. Both RunStage and the shuffle map phase ship stages this way.
func (d *Driver) stageWire(schema relation.Schema, ops []engine.OpDesc) (fp uint64, opsWire []engine.OpDesc, tables []tableMsg, err error) {
	fp = engine.StageFingerprint(schema, ops)
	opsWire = make([]engine.OpDesc, len(ops))
	seenTables := map[uint64]bool{}
	for i, op := range ops {
		opsWire[i] = op
		if op.Kind != engine.OpBroadcastJoin || op.Join == nil {
			continue
		}
		th := engine.TableFingerprint(op.Join.Schema, op.Join.Rows)
		j := *op.Join
		j.Rows = nil
		j.TableHash = th
		opsWire[i].Join = &j
		if !seenTables[th] {
			seenTables[th] = true
			data, err := colcodec.Encode(op.Join.Schema, op.Join.Rows, colcodec.Options{Compress: d.Compress, Level: d.CompressLevel})
			if err != nil {
				return 0, nil, nil, fmt.Errorf("cluster: encode broadcast table: %w", err)
			}
			tables = append(tables, tableMsg{Hash: th, Schema: op.Join.Schema, Data: data})
		}
	}
	return fp, opsWire, tables, nil
}

// connect dials and handshakes one executor connection.
func (d *Driver) connect(ctx context.Context, addr string) (*conn, error) {
	dialer := net.Dialer{Timeout: d.dialTimeout()}
	raw, err := dialer.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	c := newConn(raw)
	if err := c.handshake(d.dialTimeout()); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

// runSlot owns one executor connection. Transport failures no longer
// retire the slot: the in-flight task is requeued and the slot
// reconnects with capped exponential backoff, so executors that
// restart mid-stage rejoin. Only SlotFailureLimit consecutive failures
// retire the slot, bounding the damage of a persistently dead or
// flaky executor (it must not starve the retry budget of healthy
// ones).
func (d *Driver) runSlot(ctx context.Context, addr string, sr *stageRun) {
	var c *conn
	var stopWatch func() bool
	// dropConn hard-closes the connection (transport failures, and
	// every stage end for non-persistent drivers).
	dropConn := func() {
		if c != nil {
			if stopWatch != nil {
				stopWatch()
			}
			c.close()
			sr.harvestBytes(c)
			c = nil
		}
	}
	// releaseConn runs at slot exit: a healthy idle connection goes
	// back to the persistent pool (watcher stopped in time, or it ran
	// but skipped the close because the connection was idle); anything
	// else closes.
	releaseConn := func() {
		if c == nil {
			return
		}
		stopped := stopWatch == nil || stopWatch()
		sr.harvestBytes(c)
		if (stopped || !c.busy.Load()) && d.stashConn(addr, c) {
			c = nil
			return
		}
		c.close()
		c = nil
	}
	defer releaseConn()

	fails := 0      // consecutive dial/transport failures
	dialed := false // ever connected successfully
	for {
		if ctx.Err() != nil || sr.finished() {
			return
		}
		if c == nil {
			if fails == 0 {
				c = d.checkoutConn(addr)
			}
			if c == nil {
				if fails > 0 {
					if !sleepCtx(ctx, d.backoff(fails)) {
						return
					}
				}
				nc, err := d.connect(ctx, addr)
				if err != nil {
					fails++
					if fails >= d.slotFailureLimit() {
						return
					}
					continue
				}
				c = nc
				if dialed || fails > 0 {
					sr.noteReconnect(addr)
				}
				dialed = true
			}
			// Close the connection when the stage ends so a slot blocked
			// in a read (stalled executor, stage already complete) wakes.
			// A persistent driver's watcher leaves idle connections open:
			// they are not blocking anything and releaseConn pools them.
			nc := c
			watched := make(chan struct{})
			stop := context.AfterFunc(ctx, func() {
				defer close(watched)
				if !d.Persistent || nc.busy.Load() {
					nc.close()
				}
			})
			// A watcher that already started must finish before the
			// connection moves on: run late, it would otherwise find
			// the connection busy with the NEXT stage's task and close
			// it out of the pool.
			stopWatch = func() bool {
				if stop() {
					return true
				}
				<-watched
				return false
			}
		}
		var pi int
		var ok bool
		select {
		case <-ctx.Done():
			return
		case pi, ok = <-sr.work:
			if !ok {
				return
			}
		}
		ep, ok := sr.dispatch(pi)
		if !ok {
			continue
		}
		sr.spanFor(pi).Event("shipped", telemetry.A("addr", addr), telemetry.A("epoch", ep))
		sr.tasks.Running(pi, addr, ep)
		c.busy.Store(true)
		if ctx.Err() != nil {
			// The stage-end watcher may have observed the connection
			// idle a moment ago and left it open; nobody would unblock
			// a read started now, so bail out. busy stays set so
			// releaseConn closes instead of pooling (the watcher may
			// have closed the connection concurrently).
			return
		}
		pressured, err := d.sendTask(c, sr, pi, ep)
		c.busy.Store(false)
		if err == nil {
			fails = 0
			if pressured {
				// Admission control: the executor reported memory
				// pressure in the result frame, so this slot backs off
				// before taking more work instead of piling on.
				sr.noteAdmissionDeferral(addr)
				if !sleepCtx(ctx, d.admissionPause()) {
					return
				}
			}
			continue
		}
		if tf, isTF := err.(*taskFailure); isTF && tf.taskErr != nil {
			// The transport round-trip succeeded; the task itself failed.
			// The connection stays healthy either way.
			fails = 0
			switch {
			case tf.panicked:
				// A contained executor panic is worth a bounded number
				// of retries (it may be machine-local), but a task that
				// panics everywhere is poisoned: quarantine it with a
				// diagnostic instead of retrying forever.
				if n := sr.notePanic(pi); n >= d.panicRetryLimit() {
					sr.fail(fmt.Errorf("cluster: partition %d poisoned: %d contained panic(s), last on %s: %w",
						pi, n, addr, tf.taskErr))
					return
				}
				sr.abandon(pi, d.retries(), tf.taskErr, addr)
			case tf.retryable:
				// Environmental task failure (e.g. disk full during
				// spill): requeue like a transport failure.
				sr.abandon(pi, d.retries(), tf.taskErr, addr)
			default:
				sr.fail(tf.taskErr)
				return
			}
			continue
		}
		if isTimeout(err) {
			sr.noteDeadline(pi)
		}
		sr.abandon(pi, d.retries(), err, addr)
		dropConn()
		fails++
		if fails >= d.slotFailureLimit() {
			return
		}
	}
}

// sleepCtx sleeps for dur or until ctx is done; it reports whether the
// full sleep elapsed.
func sleepCtx(ctx context.Context, dur time.Duration) bool {
	if dur <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(dur)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// isTimeout reports whether a transport error was caused by an expired
// read/write deadline (as opposed to a closed or reset connection).
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// taskFailure distinguishes task errors (the executor ran the task and
// reported failure) from transport errors (retry elsewhere). Task
// errors are further classified by the executor's result flags:
// retryable (environmental, e.g. spill I/O — requeue) and panicked (a
// contained panic — retry up to the panic limit, then quarantine);
// unflagged task errors are deterministic and abort the stage.
type taskFailure struct {
	taskErr   error // executor-reported task failure
	ioErr     error // transport failure
	retryable bool
	panicked  bool
}

// Error implements error.
func (t *taskFailure) Error() string {
	if t.taskErr != nil {
		return t.taskErr.Error()
	}
	return t.ioErr.Error()
}

func (t *taskFailure) Unwrap() error {
	if t.taskErr != nil {
		return t.taskErr
	}
	return t.ioErr
}

// sendTask runs one task round trip on c. It returns pressured=true
// when the executor's result frame reported memory pressure at or
// above the admission threshold (the slot then defers its next
// dispatch).
func (d *Driver) sendTask(c *conn, sr *stageRun, pi, epoch int) (pressured bool, err error) {
	if tt := d.taskTimeout(); tt > 0 {
		_ = c.raw.SetDeadline(time.Now().Add(tt))
		defer func() { _ = c.raw.SetDeadline(time.Time{}) }()
	}
	// Ship the stage first if this connection has not seen it yet —
	// once per stage per connection, so a reconnected (restarted)
	// executor receives it again, and broadcast tables the connection
	// already holds are not re-sent even across stages.
	if !c.sentStages[sr.fp] {
		msg := stageMsg{Fingerprint: sr.fp, Schema: sr.rel.Schema, Ops: sr.opsWire}
		for _, tbl := range sr.tables {
			if !c.sentTables[tbl.Hash] {
				msg.Tables = append(msg.Tables, tbl)
			}
		}
		if err := c.enc.Encode(frameHdr{Kind: frameStage}); err != nil {
			return false, &taskFailure{ioErr: err}
		}
		if err := c.enc.Encode(msg); err != nil {
			return false, &taskFailure{ioErr: err}
		}
		c.sentStages[sr.fp] = true
		for _, tbl := range msg.Tables {
			c.sentTables[tbl.Hash] = true
		}
		sr.noteStageShipped()
	}
	task := taskMsg{ID: uint64(pi), Epoch: uint64(epoch), Stage: sr.fp, Span: sr.spanFor(pi).ID()}
	if sr.segs != nil {
		// Segment-scheduled stage: the executor reads the segment file
		// itself; nothing to encode or ship.
		task.SegPath = sr.segs[pi].Path
		task.SegCols = sr.segs[pi].Cols
	} else {
		data, err := sr.encodedPartition(pi)
		if err != nil {
			// Encoding is driver-local and deterministic: abort, don't retry.
			return false, &taskFailure{taskErr: fmt.Errorf("cluster: task %d: encode partition: %w", pi, err)}
		}
		task.Data = data
	}
	if err := c.enc.Encode(frameHdr{Kind: frameTask}); err != nil {
		return false, &taskFailure{ioErr: err}
	}
	if err := c.enc.Encode(task); err != nil {
		return false, &taskFailure{ioErr: err}
	}
	var res resultMsg
	if err := c.dec.Decode(&res); err != nil {
		return false, &taskFailure{ioErr: err}
	}
	// Memory pressure rides on every result frame, success or failure
	// (gob-additive v3 fields; old executors leave them zero, which
	// reads as "no budget configured" and disables admission control).
	if thr := d.admissionThreshold(); thr > 0 && res.MemBudget > 0 {
		pressured = float64(res.MemUsed) >= thr*float64(res.MemBudget)
	}
	if res.Err != "" {
		return pressured, &taskFailure{
			taskErr:   fmt.Errorf("cluster: task %d: %s", pi, res.Err),
			retryable: res.Retryable,
			panicked:  res.Panicked,
		}
	}
	if res.ID != uint64(pi) || res.Epoch != uint64(epoch) {
		return pressured, &taskFailure{ioErr: fmt.Errorf("cluster: task id/epoch mismatch: sent %d/%d got %d/%d", pi, epoch, res.ID, res.Epoch)}
	}
	dstart := time.Now()
	rows, err := colcodec.Decode(sr.outSchema, res.Data)
	if err != nil {
		// A payload that gob-decoded but fails the columnar codec is
		// wire corruption: retryable, like any broken frame.
		return pressured, &taskFailure{ioErr: fmt.Errorf("cluster: task %d: decode result: %w", pi, err)}
	}
	driverDecode := time.Since(dstart)
	sr.noteDecode(driverDecode)
	// The round trip's I/O is complete: clear busy before the commit so
	// that, when this is the stage's last task, the stage-end watcher
	// the commit triggers sees an idle connection and leaves it for the
	// persistent pool instead of closing it.
	c.busy.Store(false)
	if sp := sr.spanFor(pi); sp != nil {
		// The executor's timing breakdown (echoed in the result) places
		// remote work on the driver's trace without clock agreement.
		sp.Event("decoded",
			telemetry.A("remote_decode_us", time.Duration(res.DecodeNs).Microseconds()),
			telemetry.A("driver_decode_us", driverDecode.Microseconds()))
		sp.Event("executed",
			telemetry.A("exec_us", time.Duration(res.ExecNs).Microseconds()),
			telemetry.A("remote_encode_us", time.Duration(res.EncodeNs).Microseconds()))
	}
	sr.commit(pi, rows)
	return pressured, nil
}
