package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"ivnt/internal/colcodec"
	"ivnt/internal/engine"
	"ivnt/internal/relation"
	"ivnt/internal/telemetry"
)

// The task dispatcher. Every unit of remote work the driver schedules —
// a stage partition (RunStage), a segment (RunSegmentStage) or a
// shuffle map task — is an index in one taskQueue, executed by runSlot
// loops that own one executor connection each. The callers differ only
// in the per-task round trip they hand the loop (sendTask, sendMap) and
// in what a winning commit stores.

// inflightInfo tracks the live dispatches of one task: how many copies
// are out (original + speculative) and when the oldest was launched.
type inflightInfo struct {
	n     int
	start time.Time
}

// taskQueue is the scheduling state of one round of tasks. Tasks are
// indexes flowing through work; pending counts tasks not yet completed.
// Slots survive transport failures by reconnecting; the round fails
// only when a task exhausts its retry budget or is quarantined, the
// context is cancelled, or every slot has retired with work
// outstanding.
type taskQueue struct {
	// label names one task in errors ("partition", "shuffle map").
	label string

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

	// stats is the single accumulation point for the round's counters:
	// slots and the speculation monitor write through its atomics. No
	// counter lives behind mu.
	stats *engine.StatsCollector

	// stageSpan/spans carry the round's trace; nil when tracing is off
	// (all span operations on nil are no-ops). tasks mirrors scheduling
	// state for /tasks; nil-safe the same way.
	stageSpan *telemetry.Span
	spans     []*telemetry.Span
	tasks     *telemetry.TaskTable

	firstErr error
	cancel   context.CancelFunc
}

// newTaskQueue builds the state for n tasks, all pending. The work
// channel capacity covers every task being requeued up to the retry
// budget plus every speculative launch, so no send ever blocks.
func (d *Driver) newTaskQueue(n int, label string, stats *engine.StatsCollector, tasks *telemetry.TaskTable) *taskQueue {
	return &taskQueue{
		label:    label,
		work:     make(chan int, n*(d.retries()+d.maxSpeculation()+2)),
		pending:  n,
		done:     make([]bool, n),
		attempts: make([]int, n),
		epoch:    make([]int, n),
		specs:    make([]int, n),
		panics:   make([]int, n),
		inflight: make(map[int]inflightInfo),
		stats:    stats,
		tasks:    tasks,
	}
}

// spanFor returns the trace span of task pi, or nil when tracing is
// off.
func (q *taskQueue) spanFor(pi int) *telemetry.Span {
	if q.spans == nil {
		return nil
	}
	return q.spans[pi]
}

// skip completes task pi without dispatching it: store (may be nil)
// records its result. Only valid before the slots start.
func (q *taskQueue) skip(pi int, store func()) {
	q.mu.Lock()
	q.done[pi] = true
	if store != nil {
		store()
	}
	q.pending--
	q.mu.Unlock()
}

// closeWorkLocked closes the work channel exactly once; callers hold
// q.mu.
func (q *taskQueue) closeWorkLocked() {
	if !q.closed {
		q.closed = true
		close(q.work)
	}
}

func (q *taskQueue) finished() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.closed
}

func (q *taskQueue) fail(err error) {
	q.mu.Lock()
	if q.firstErr == nil {
		q.firstErr = err
	}
	q.closeWorkLocked()
	q.mu.Unlock()
	q.cancel()
}

func (q *taskQueue) noteReconnect(addr string) {
	q.stats.Reconnects.Add(1)
	mReconnects.With(addr).Inc()
	q.stageSpan.Event("reconnect", telemetry.A("addr", addr))
}

func (q *taskQueue) noteDeadline(pi int) {
	q.stats.DeadlineHits.Add(1)
	mDeadlineHits.Inc()
	q.spanFor(pi).Event("deadline_hit")
}

// notePanic counts a contained executor panic against task pi and
// returns the new total; the slot quarantines the task once it reaches
// the driver's panic retry limit.
func (q *taskQueue) notePanic(pi int) int {
	q.mu.Lock()
	q.panics[pi]++
	n := q.panics[pi]
	q.mu.Unlock()
	mTaskPanics.Inc()
	q.spanFor(pi).Event("task_panic", telemetry.A("count", n))
	return n
}

// noteAdmissionDeferral records one pressure-induced dispatch pause.
func (q *taskQueue) noteAdmissionDeferral(addr string) {
	q.stats.AdmissionDeferrals.Add(1)
	mAdmissionDeferrals.Inc()
	q.stageSpan.Event("admission_deferral", telemetry.A("addr", addr))
}

// dispatch registers one launch of task pi and returns its epoch. A
// task that already completed (e.g. a stale speculative queue entry)
// is not dispatched again.
func (q *taskQueue) dispatch(pi int) (epoch int, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed || q.done[pi] {
		return 0, false
	}
	q.epoch[pi]++
	fl := q.inflight[pi]
	if fl.n == 0 {
		fl.start = time.Now()
	}
	fl.n++
	q.inflight[pi] = fl
	mInflight.Add(1)
	return q.epoch[pi], true
}

// commit records a completed task. The first result for a task wins and
// runs store under the queue lock; duplicates from speculative copies
// are discarded.
func (q *taskQueue) commit(pi int, store func()) {
	q.mu.Lock()
	started := q.dropInflightLocked(pi)
	if q.done[pi] || q.closed {
		q.mu.Unlock()
		return
	}
	q.done[pi] = true
	store()
	if !started.IsZero() {
		q.durations = append(q.durations, time.Since(started))
	}
	q.pending--
	finished := q.pending == 0
	if finished {
		q.closeWorkLocked()
	}
	q.mu.Unlock()
	if !started.IsZero() {
		engine.ObserveTask("cluster", time.Since(started))
	}
	sp := q.spanFor(pi)
	sp.Event("merged")
	sp.End()
	q.tasks.Done(pi)
	if finished {
		// Unblock slots whose connections are mid-read (e.g. a stalled
		// executor that lost the speculation race).
		q.cancel()
	}
}

func (q *taskQueue) dropInflightLocked(pi int) time.Time {
	fl, ok := q.inflight[pi]
	if !ok {
		return time.Time{}
	}
	start := fl.start
	fl.n--
	if fl.n <= 0 {
		delete(q.inflight, pi)
	} else {
		q.inflight[pi] = fl
	}
	mInflight.Add(-1)
	return start
}

// abandon records a failure of one launch of task pi and requeues the
// task unless another copy is still in flight or the retry budget is
// exhausted (which fails the round).
func (q *taskQueue) abandon(pi, maxRetries int, cause error, addr string) {
	q.mu.Lock()
	q.dropInflightLocked(pi)
	if q.done[pi] || q.closed {
		q.mu.Unlock()
		return
	}
	q.attempts[pi]++
	q.stats.Retries.Add(1)
	attempts := q.attempts[pi]
	tooMany := attempts > maxRetries
	if !tooMany {
		if fl, live := q.inflight[pi]; !live || fl.n <= 0 {
			q.work <- pi
		}
	}
	q.mu.Unlock()
	mRetries.Inc()
	q.spanFor(pi).Event("task_retry",
		telemetry.A("attempt", attempts), telemetry.A("addr", addr), telemetry.A("cause", cause.Error()))
	q.tasks.Retrying(pi)
	if tooMany {
		q.fail(fmt.Errorf("cluster: %s %d failed %d times (last on %s): %w", q.label, pi, attempts, addr, cause))
	}
}

// speculate is the straggler monitor: any task whose oldest in-flight
// copy has been running longer than factor× the median completed-task
// duration (floored at min) is re-enqueued, up to maxPer copies.
func (q *taskQueue) speculate(ctx context.Context, factor float64, min, interval time.Duration, maxPer int) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		q.mu.Lock()
		if q.closed {
			q.mu.Unlock()
			return
		}
		med := medianDuration(q.durations)
		if med <= 0 {
			q.mu.Unlock()
			continue
		}
		thr := time.Duration(factor * float64(med))
		if thr < min {
			thr = min
		}
		now := time.Now()
		var launched []int
		for pi, fl := range q.inflight {
			if fl.n == 1 && !q.done[pi] && q.specs[pi] < maxPer && now.Sub(fl.start) > thr {
				q.specs[pi]++
				q.stats.Speculative.Add(1)
				q.work <- pi
				launched = append(launched, pi)
			}
		}
		q.mu.Unlock()
		for _, pi := range launched {
			mSpeculative.Inc()
			q.stageSpan.Event("speculation", telemetry.A("task", pi))
			q.tasks.Speculative(pi)
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

// harvestBytes folds the bytes a connection moved since its previous
// harvest into stats (conn.takeCounts is delta-based, so harvesting the
// same connection twice never double-counts).
func harvestBytes(stats *engine.StatsCollector, c *conn) {
	w, r := c.takeCounts()
	stats.BytesSent.Add(w)
	stats.BytesRecv.Add(r)
	mBytesSent.Add(w)
	mBytesRecv.Add(r)
}

// partEncoder caches the columnar encoding of each input partition, so
// retries and speculative copies of a task reuse the bytes instead of
// re-encoding.
type partEncoder struct {
	rel   *relation.Relation
	opts  colcodec.Options
	stats *engine.StatsCollector

	mu  sync.Mutex
	enc [][]byte
}

func (d *Driver) newPartEncoder(rel *relation.Relation, stats *engine.StatsCollector) *partEncoder {
	return &partEncoder{
		rel:   rel,
		opts:  colcodec.Options{Compress: d.Compress, Level: d.CompressLevel},
		stats: stats,
		enc:   make([][]byte, len(rel.Partitions)),
	}
}

// get returns (caching) the encoding of partition pi.
func (pe *partEncoder) get(pi int) ([]byte, error) {
	pe.mu.Lock()
	if b := pe.enc[pi]; b != nil {
		pe.mu.Unlock()
		return b, nil
	}
	pe.mu.Unlock()
	start := time.Now()
	b, err := colcodec.Encode(pe.rel.Schema, pe.rel.Partitions[pi], pe.opts)
	if err != nil {
		return nil, err
	}
	pe.stats.EncodeNs.Add(int64(time.Since(start)))
	pe.mu.Lock()
	if pe.enc[pi] == nil {
		pe.enc[pi] = b
	} else {
		b = pe.enc[pi] // lost a benign double-encode race
	}
	pe.mu.Unlock()
	return b, nil
}

// shipStage sends the stage to c if this connection has not seen it
// yet — once per stage per connection, so a reconnected (restarted)
// executor receives it again, and broadcast tables the connection
// already holds are not re-sent even across stages.
func shipStage(c *conn, stats *engine.StatsCollector, fp uint64, schema relation.Schema, opsWire []engine.OpDesc, tables []tableMsg) error {
	if c.sentStages[fp] {
		return nil
	}
	msg := stageMsg{Fingerprint: fp, Schema: schema, Ops: opsWire}
	for _, tbl := range tables {
		if !c.sentTables[tbl.Hash] {
			msg.Tables = append(msg.Tables, tbl)
		}
	}
	if err := c.enc.Encode(frameHdr{Kind: frameStage}); err != nil {
		return &taskFailure{ioErr: err}
	}
	if err := c.enc.Encode(msg); err != nil {
		return &taskFailure{ioErr: err}
	}
	c.sentStages[fp] = true
	for _, tbl := range msg.Tables {
		c.sentTables[tbl.Hash] = true
	}
	stats.StagesShipped.Add(1)
	mStagesShipped.Inc()
	return nil
}

// roundTrip runs one launch (epoch) of task pi on connection c to addr.
// On success it returns store, which the queue runs if this launch wins
// the commit, and pressured, whether the executor reported memory
// pressure at or above the admission threshold. Failures are
// *taskFailure values the slot loop classifies.
type roundTrip func(c *conn, addr string, pi, epoch int) (store func(), pressured bool, err error)

// runQueue runs every queued task of q to completion over one slot loop
// per executor slot, with the straggler monitor when speculate is set.
func (d *Driver) runQueue(ctx context.Context, q *taskQueue, send roundTrip, speculate bool) error {
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	q.cancel = cancel
	q.mu.Lock()
	if q.pending == 0 {
		q.closeWorkLocked()
	}
	q.mu.Unlock()

	if f := d.speculationFactor(); speculate && f > 0 && !q.finished() {
		go q.speculate(cctx, f, d.speculationMin(), d.speculationInterval(), d.maxSpeculation())
	}

	var wg sync.WaitGroup
	for _, addr := range d.Addrs {
		for s := 0; s < d.slots(); s++ {
			wg.Add(1)
			go func(addr string) {
				defer wg.Done()
				d.runSlot(cctx, addr, q, send)
			}(addr)
		}
	}
	wg.Wait()

	q.mu.Lock()
	firstErr, pending := q.firstErr, q.pending
	// Launches a failed or cancelled round abandoned mid-flight (a slot
	// that quit on a fatal task error or a cancelled context) never
	// reached commit or abandon; take them off the in-flight gauge.
	for _, fl := range q.inflight {
		mInflight.Add(-float64(fl.n))
	}
	q.mu.Unlock()
	// A user cancellation must surface as such, not as a transport
	// failure or an "undeliverable" round.
	if ctx.Err() != nil {
		return ctx.Err()
	}
	if firstErr != nil {
		return firstErr
	}
	if pending > 0 {
		return fmt.Errorf("cluster: %d %s(s) undeliverable: no executor reachable", pending, q.label)
	}
	return nil
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

// runSlot owns one executor connection. Transport failures do not
// retire the slot: the in-flight task is requeued and the slot
// reconnects with capped exponential backoff, so executors that
// restart mid-round rejoin. Only SlotFailureLimit consecutive failures
// retire the slot, bounding the damage of a persistently dead or
// flaky executor (it must not starve the retry budget of healthy
// ones).
func (d *Driver) runSlot(ctx context.Context, addr string, q *taskQueue, send roundTrip) {
	var c *conn
	var stopWatch func() bool
	// dropConn hard-closes the connection (transport failures, and
	// every round end for non-persistent drivers).
	dropConn := func() {
		if c != nil {
			if stopWatch != nil {
				stopWatch()
			}
			c.close()
			harvestBytes(q.stats, c)
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
		harvestBytes(q.stats, c)
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
		if ctx.Err() != nil || q.finished() {
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
					q.noteReconnect(addr)
				}
				dialed = true
			}
			// Close the connection when the round ends so a slot blocked
			// in a read (stalled executor, round already complete) wakes.
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
			// the connection busy with the NEXT round's task and close
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
		case pi, ok = <-q.work:
			if !ok {
				return
			}
		}
		ep, ok := q.dispatch(pi)
		if !ok {
			continue
		}
		q.spanFor(pi).Event("shipped", telemetry.A("addr", addr), telemetry.A("epoch", ep))
		q.tasks.Running(pi, addr, ep)
		c.busy.Store(true)
		if ctx.Err() != nil {
			// The round-end watcher may have observed the connection
			// idle a moment ago and left it open; nobody would unblock
			// a read started now, so bail out. busy stays set so
			// releaseConn closes instead of pooling (the watcher may
			// have closed the connection concurrently).
			return
		}
		store, pressured, err := send(c, addr, pi, ep)
		// The round trip's I/O is complete: clear busy before the commit
		// so that, when this is the round's last task, the round-end
		// watcher the commit triggers sees an idle connection and leaves
		// it for the persistent pool instead of closing it.
		c.busy.Store(false)
		if err == nil {
			q.commit(pi, store)
			fails = 0
			if pressured {
				// Admission control: the executor reported memory
				// pressure in the result frame, so this slot backs off
				// before taking more work instead of piling on.
				q.noteAdmissionDeferral(addr)
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
				if n := q.notePanic(pi); n >= d.panicRetryLimit() {
					q.fail(fmt.Errorf("cluster: %s %d poisoned: %d contained panic(s), last on %s: %w",
						q.label, pi, n, addr, tf.taskErr))
					return
				}
				q.abandon(pi, d.retries(), tf.taskErr, addr)
			case tf.retryable:
				// Environmental task failure (e.g. disk full during
				// spill, a failed peer push): requeue like a transport
				// failure.
				q.abandon(pi, d.retries(), tf.taskErr, addr)
			default:
				q.fail(tf.taskErr)
				return
			}
			continue
		}
		if isTimeout(err) {
			q.noteDeadline(pi)
		}
		q.abandon(pi, d.retries(), err, addr)
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
// unflagged task errors are deterministic and abort the round.
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
