package engine

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"ivnt/internal/relation"
	"ivnt/internal/telemetry"
)

// Metric families registered on the process-wide telemetry registry.
// These are the single source of truth behind engine.Stats: executors
// feed them as work happens, and Stats values returned from RunStage
// are snapshots assembled from the same counters, never from ad-hoc
// read-modify-write on shared structs.
var (
	opSecondsVec = telemetry.Default().HistogramVec(
		"engine_op_seconds",
		"Wall time of one operator application over one partition, by operator kind.",
		telemetry.DurationBuckets, "op")
	taskSecondsVec = telemetry.Default().HistogramVec(
		"task_seconds",
		"End-to-end latency of one task (one partition through one stage), by executor kind.",
		telemetry.DurationBuckets, "executor")
	stageSecondsVec = telemetry.Default().HistogramVec(
		"engine_stage_seconds",
		"Wall time of one RunStage call, by executor kind.",
		telemetry.DurationBuckets, "executor")
	rowsInVec = telemetry.Default().CounterVec(
		"engine_rows_in_total", "Rows entering executed stages.", "executor")
	rowsOutVec = telemetry.Default().CounterVec(
		"engine_rows_out_total", "Rows produced by executed stages.", "executor")
	stagesVec = telemetry.Default().CounterVec(
		"engine_stages_total", "Stage executions.", "executor")

	// vectorizedBatchesCtr counts batches processed by the vectorized
	// kernels (fused runs, join-headed ones included, and the
	// whole-partition window/rule kernels). The cluster tests read it to prove remote
	// executors run the vectorized path.
	vectorizedBatchesCtr = telemetry.Default().Counter(
		"engine_vectorized_batches_total",
		"Row batches processed by the vectorized execution kernels.")
	fusedStepsVec = telemetry.Default().CounterVec(
		"engine_fused_steps_total",
		"Operators executed as part of a fused vectorized run, by operator kind.",
		"op")
	// runSkipRowsCtr counts filter evaluations avoided by run skipping:
	// selected rows whose referenced cells were bitwise-identical to the
	// previous row's, so the previous verdict was reused.
	runSkipRowsCtr = telemetry.Default().Counter(
		"engine_runskip_rows_total",
		"Fused filter evaluations skipped by reusing the verdict of a bitwise-identical row.")

	// Spill families: how often governed operators took the external
	// path and how much they wrote. Labels are pre-registered for every
	// governed operator (spillOps) so /metrics exposes the full matrix
	// before any pressure occurs; VerifySpillMetrics gates that in
	// `make vet-metrics`.
	mSpills = telemetry.Default().CounterVec(
		"engine_spills_total",
		"Governed operator executions that degraded to the external (spill-to-disk) path, by operator.",
		"op")
	mSpillBytes = telemetry.Default().CounterVec(
		"engine_spill_bytes_total",
		"Bytes written to spill run files, by operator.",
		"op")

	// opHist pre-resolves one histogram per operator kind so the hot
	// apply path does no map lookup or key join. Filling it for every
	// kind up front also guarantees /metrics exposes the full per-op
	// latency family before any work runs — which is the invariant
	// `make vet-metrics` (VerifyOpMetrics) enforces.
	opHist [NumOpKinds]*telemetry.Histogram
	// fusedStepsCtr is the same pre-registration for the fused-step
	// counters, also enforced by VerifyOpMetrics.
	fusedStepsCtr [NumOpKinds]*telemetry.Counter
)

// spillOps lists every governed operator label the spill families must
// carry from process start.
var spillOps = []string{"sortwithin", "sortglobal", "partialagg", "finalagg"}

func init() {
	for k := 0; k < NumOpKinds; k++ {
		opHist[k] = opSecondsVec.With(OpKind(k).String())
		fusedStepsCtr[k] = fusedStepsVec.With(OpKind(k).String())
	}
	for _, op := range spillOps {
		mSpills.With(op)
		mSpillBytes.With(op)
	}
}

// ObserveOp records one operator application into the per-kind latency
// histogram. Unknown kinds (possible only via corrupt wire input) are
// dropped rather than allowed to panic.
func ObserveOp(k OpKind, d time.Duration) {
	if int(k) < len(opHist) {
		opHist[k].ObserveDuration(d)
	}
}

// ObserveTask records the end-to-end latency of one task for the given
// executor kind ("local" or "cluster").
func ObserveTask(executor string, d time.Duration) {
	taskSecondsVec.With(executor).ObserveDuration(d)
}

// ObserveStage records a finished RunStage into the stage-level
// families.
func ObserveStage(executor string, st Stats) {
	stageSecondsVec.With(executor).ObserveDuration(st.Wall)
	rowsInVec.With(executor).Add(int64(st.RowsIn))
	rowsOutVec.With(executor).Add(int64(st.RowsOut))
	stagesVec.With(executor).Inc()
}

// VerifyOpMetrics checks that every operator kind has a human-readable
// name and a registered engine_op_seconds series. It is the runtime
// twin of the oracle's compile-time exhaustiveness pin: adding an
// OpKind without a String() case or outside the init pre-registration
// fails `make vet-metrics` (cmd/vetmetrics) and CI.
func VerifyOpMetrics() error {
	registered := make(map[string]bool)
	for _, lv := range opSecondsVec.LabelValues() {
		if len(lv) == 1 {
			registered[lv[0]] = true
		}
	}
	fused := make(map[string]bool)
	for _, lv := range fusedStepsVec.LabelValues() {
		if len(lv) == 1 {
			fused[lv[0]] = true
		}
	}
	for k := 0; k < NumOpKinds; k++ {
		name := OpKind(k).String()
		if strings.HasPrefix(name, "op(") {
			return fmt.Errorf("OpKind %d has no String() case (prints as %q); name it and it will gain a latency series", k, name)
		}
		if !registered[name] {
			return fmt.Errorf("OpKind %q has no engine_op_seconds{op=%q} series registered", name, name)
		}
		if !fused[name] {
			return fmt.Errorf("OpKind %q has no engine_fused_steps_total{op=%q} series registered", name, name)
		}
	}
	return nil
}

// VerifySpillMetrics checks that every governed operator has its
// engine_spills_total and engine_spill_bytes_total series registered
// up front, like VerifyOpMetrics does for the per-op latency family.
// Part of the `make vet-metrics` catalogue gate.
func VerifySpillMetrics() error {
	for _, vec := range []struct {
		name string
		v    *telemetry.CounterVec
	}{
		{"engine_spills_total", mSpills},
		{"engine_spill_bytes_total", mSpillBytes},
	} {
		registered := make(map[string]bool)
		for _, lv := range vec.v.LabelValues() {
			if len(lv) == 1 {
				registered[lv[0]] = true
			}
		}
		for _, op := range spillOps {
			if !registered[op] {
				return fmt.Errorf("governed operator %q has no %s{op=%q} series registered", op, vec.name, op)
			}
		}
	}
	return nil
}

// ApplyInstrumented runs the pipeline over one partition exactly like
// Apply while timing each operator into engine_op_seconds. Executors
// use this; Apply stays unobserved for the differential oracle and for
// microbenchmarks that must not measure clock reads. A fused run is one
// timed pass: each constituent operator kind is observed with the
// run's duration.
func (p *StagePipeline) ApplyInstrumented(part []relation.Row) ([]relation.Row, error) {
	return p.execute(part, true)
}

// StatsCollector accumulates one stage run's Stats through atomics, so
// any number of worker goroutines, connection slots, and concurrent
// snapshot readers can touch it without a lock. Snapshot assembles the
// familiar Stats view; all fields are integer counts or nanosecond
// sums, so snapshots of a quiesced collector are bit-identical to what
// sequential accumulation would have produced.
type StatsCollector struct {
	RowsIn, RowsOut, Partitions, Tasks, Retries atomic.Int64
	Reconnects, Speculative, DeadlineHits       atomic.Int64
	BytesSent, BytesRecv, StagesShipped         atomic.Int64
	WallNs, EncodeNs, DecodeNs                  atomic.Int64
	AdmissionDeferrals                          atomic.Int64
	ShufflePartitions, ShuffleBytesPushed       atomic.Int64
	ShuffleBarrierNs                            atomic.Int64
}

// NewStatsCollector returns an empty collector.
func NewStatsCollector() *StatsCollector { return &StatsCollector{} }

// Snapshot returns the current totals as a Stats value. Safe to call
// while writers are active; each field is individually consistent.
func (c *StatsCollector) Snapshot() Stats {
	return Stats{
		RowsIn:             int(c.RowsIn.Load()),
		RowsOut:            int(c.RowsOut.Load()),
		Partitions:         int(c.Partitions.Load()),
		Wall:               time.Duration(c.WallNs.Load()),
		Tasks:              int(c.Tasks.Load()),
		Retries:            int(c.Retries.Load()),
		Reconnects:         int(c.Reconnects.Load()),
		Speculative:        int(c.Speculative.Load()),
		DeadlineHits:       int(c.DeadlineHits.Load()),
		BytesSent:          c.BytesSent.Load(),
		BytesRecv:          c.BytesRecv.Load(),
		StagesShipped:      int(c.StagesShipped.Load()),
		EncodeWall:         time.Duration(c.EncodeNs.Load()),
		DecodeWall:         time.Duration(c.DecodeNs.Load()),
		AdmissionDeferrals: int(c.AdmissionDeferrals.Load()),
		ShufflePartitions:  int(c.ShufflePartitions.Load()),
		ShuffleBytesPushed: c.ShuffleBytesPushed.Load(),
		ShuffleBarrierWall: time.Duration(c.ShuffleBarrierNs.Load()),
	}
}

// AddStats folds a finished Stats value into the collector.
func (c *StatsCollector) AddStats(s Stats) {
	c.RowsIn.Add(int64(s.RowsIn))
	c.RowsOut.Add(int64(s.RowsOut))
	c.Partitions.Add(int64(s.Partitions))
	c.WallNs.Add(int64(s.Wall))
	c.Tasks.Add(int64(s.Tasks))
	c.Retries.Add(int64(s.Retries))
	c.Reconnects.Add(int64(s.Reconnects))
	c.Speculative.Add(int64(s.Speculative))
	c.DeadlineHits.Add(int64(s.DeadlineHits))
	c.BytesSent.Add(s.BytesSent)
	c.BytesRecv.Add(s.BytesRecv)
	c.StagesShipped.Add(int64(s.StagesShipped))
	c.EncodeNs.Add(int64(s.EncodeWall))
	c.DecodeNs.Add(int64(s.DecodeWall))
	c.AdmissionDeferrals.Add(int64(s.AdmissionDeferrals))
	c.ShufflePartitions.Add(int64(s.ShufflePartitions))
	c.ShuffleBytesPushed.Add(s.ShuffleBytesPushed)
	c.ShuffleBarrierNs.Add(int64(s.ShuffleBarrierWall))
}
