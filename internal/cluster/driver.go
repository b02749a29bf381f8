package cluster

import (
	"context"
	"fmt"
	"math/rand"
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
	// sentTables caches warm — to a per-address pool the next stage or
	// shuffle map round checks out of. This is the resident mode the
	// query service runs the driver in (many stages over one daemon
	// lifetime); batch runs keep the default dial-per-stage lifecycle.
	// Close releases the pool. A pooled connection whose executor died is detected on
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
// it was kept (false: caller must close it). The connection forgets
// which shuffles it opened: shuffle IDs never repeat, so the ledger
// would only grow, and the next map round that checks the connection
// out re-sends its (idempotent) begin exactly as a freshly dialed slot
// does.
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
	clear(c.sentShuffles)
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

// stageRun is one RunStage/RunSegmentStage call: its task queue (one
// task per partition) plus what the stage's round trips ship and what
// commits assemble.
type stageRun struct {
	*taskQueue
	d        *Driver
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
	inputs    *partEncoder
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

// newStageRun builds the state shared by RunStage and RunSegmentStage.
func (d *Driver) newStageRun(rel *relation.Relation, fp uint64, opsWire []engine.OpDesc, tables []tableMsg, outSchema relation.Schema) *stageRun {
	stats := engine.NewStatsCollector()
	return &stageRun{
		taskQueue: d.newTaskQueue(len(rel.Partitions), "partition", stats, d.Tasks),
		d:         d,
		rel:       rel,
		fp:        fp,
		opsWire:   opsWire,
		tables:    tables,
		outSchema: outSchema,
		outParts:  make([][]relation.Row, len(rel.Partitions)),
		inputs:    d.newPartEncoder(rel, stats),
	}
}

// drive runs a prepared stage to completion: spans, pruned-partition
// pre-commit, work distribution, slot pool, speculation, and the final
// stats fold. rowsIn is the stage's input row count (the driver cannot
// derive it for segment stages, whose partitions never materialize
// here).
func (d *Driver) drive(ctx context.Context, sr *stageRun, start time.Time, rowsIn int) (*relation.Relation, engine.Stats, error) {
	nParts := len(sr.outParts)
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
	for pi := 0; pi < nParts; pi++ {
		if sr.segs != nil && sr.segs[pi].Pruned {
			rows, err := sr.prunedPipe.ApplyContained(nil)
			if err != nil {
				return nil, engine.Stats{}, err
			}
			sr.skip(pi, func() { sr.outParts[pi] = rows })
			if sp := sr.spanFor(pi); sp != nil {
				sp.Event("pruned")
				sp.End()
			}
			sr.tasks.Done(pi)
			continue
		}
		sr.work <- pi
	}

	if err := d.runQueue(ctx, sr.taskQueue, sr.sendTask, true); err != nil {
		return nil, engine.Stats{}, err
	}
	st := sr.stats.Snapshot()
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

// sendTask is the stage round trip: ship the stage if c lacks it, send
// the task (an encoded partition or a segment reference), and decode
// the result rows, which store commits as partition pi's output.
func (sr *stageRun) sendTask(c *conn, _ string, pi, epoch int) (store func(), pressured bool, err error) {
	d := sr.d
	if tt := d.taskTimeout(); tt > 0 {
		_ = c.raw.SetDeadline(time.Now().Add(tt))
		defer func() { _ = c.raw.SetDeadline(time.Time{}) }()
	}
	if err := shipStage(c, sr.stats, sr.fp, sr.rel.Schema, sr.opsWire, sr.tables); err != nil {
		return nil, false, err
	}
	task := taskMsg{ID: uint64(pi), Epoch: uint64(epoch), Stage: sr.fp, Span: sr.spanFor(pi).ID()}
	if sr.segs != nil {
		// Segment-scheduled stage: the executor reads the segment file
		// itself; nothing to encode or ship.
		task.SegPath = sr.segs[pi].Path
		task.SegCols = sr.segs[pi].Cols
	} else {
		data, err := sr.inputs.get(pi)
		if err != nil {
			// Encoding is driver-local and deterministic: abort, don't retry.
			return nil, false, &taskFailure{taskErr: fmt.Errorf("cluster: task %d: encode partition: %w", pi, err)}
		}
		task.Data = data
	}
	if err := c.enc.Encode(frameHdr{Kind: frameTask}); err != nil {
		return nil, false, &taskFailure{ioErr: err}
	}
	if err := c.enc.Encode(task); err != nil {
		return nil, false, &taskFailure{ioErr: err}
	}
	var res resultMsg
	if err := c.dec.Decode(&res); err != nil {
		return nil, false, &taskFailure{ioErr: err}
	}
	// Memory pressure rides on every result frame, success or failure
	// (gob-additive v3 fields; old executors leave them zero, which
	// reads as "no budget configured" and disables admission control).
	if thr := d.admissionThreshold(); thr > 0 && res.MemBudget > 0 {
		pressured = float64(res.MemUsed) >= thr*float64(res.MemBudget)
	}
	if res.Err != "" {
		return nil, pressured, &taskFailure{
			taskErr:   fmt.Errorf("cluster: task %d: %s", pi, res.Err),
			retryable: res.Retryable,
			panicked:  res.Panicked,
		}
	}
	if res.ID != uint64(pi) || res.Epoch != uint64(epoch) {
		return nil, pressured, &taskFailure{ioErr: fmt.Errorf("cluster: task id/epoch mismatch: sent %d/%d got %d/%d", pi, epoch, res.ID, res.Epoch)}
	}
	dstart := time.Now()
	rows, err := colcodec.Decode(sr.outSchema, res.Data)
	if err != nil {
		// A payload that gob-decoded but fails the columnar codec is
		// wire corruption: retryable, like any broken frame.
		return nil, pressured, &taskFailure{ioErr: fmt.Errorf("cluster: task %d: decode result: %w", pi, err)}
	}
	driverDecode := time.Since(dstart)
	sr.stats.DecodeNs.Add(int64(driverDecode))
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
	return func() { sr.outParts[pi] = rows }, pressured, nil
}
