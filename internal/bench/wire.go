package bench

import (
	"context"
	"fmt"
	"strings"
	"time"

	"ivnt/internal/cluster"
	"ivnt/internal/colcodec"
	"ivnt/internal/engine"
	"ivnt/internal/relation"
	"ivnt/internal/telemetry"
)

// WireOptions tune the wire-protocol experiment.
type WireOptions struct {
	// Rows in the streamed trace relation; default 20000.
	Rows int
	// Partitions (= tasks per stage); default 16.
	Partitions int
	// TableRows in the broadcast unit table; default 256.
	TableRows int
	// Executors and slots per executor for the loopback cluster.
	Executors, Slots int
	// Compress turns on DEFLATE for v3 partition payloads.
	Compress bool
	// Level is the DEFLATE level for compressed payloads (0 =
	// flate.BestSpeed, the driver default; see colcodec.Options.Level).
	Level int
	// Tracer/Tasks, when set, are handed to the cluster driver so the
	// run produces a task-level trace and a live /tasks view.
	Tracer *telemetry.Tracer
	Tasks  *telemetry.TaskTable
}

func (o WireOptions) withDefaults() WireOptions {
	if o.Rows <= 0 {
		o.Rows = 20000
	}
	if o.Partitions <= 0 {
		o.Partitions = 16
	}
	if o.TableRows <= 0 {
		o.TableRows = 256
	}
	if o.Executors <= 0 {
		o.Executors = 2
	}
	if o.Slots <= 0 {
		o.Slots = 2
	}
	return o
}

// WireResult is one measurement of protocol v3 traffic for the
// broadcast-join stage.
type WireResult struct {
	Rows, Partitions, Tasks int
	Compress                bool

	// Measured v3 traffic (driver byte counters: handshakes, stage
	// shipments, task payloads, results).
	V3BytesSent, V3BytesRecv int64
	V3BytesPerTask           float64
	StagesShipped            int

	// Driver-side codec cost, per input row.
	EncodeNsPerRow, DecodeNsPerRow float64

	// Task latency quantiles (seconds) from the telemetry task_seconds
	// histogram delta across this run.
	TaskP50Sec, TaskP95Sec, TaskP99Sec float64

	WallSec float64
}

// wireStage builds the measured stage: a trace stream broadcast-joined
// with a unit/rule table, then per-row rule evaluation — Algorithm 1's
// interpretation join, the stage the v3 protocol was built for.
func wireStage(opts WireOptions) (*relation.Relation, []engine.OpDesc) {
	streamSchema := relation.NewSchema(
		relation.Column{Name: "t", Kind: relation.KindFloat},
		relation.Column{Name: "mid", Kind: relation.KindInt},
		relation.Column{Name: "x", Kind: relation.KindInt},
	)
	rows := make([]relation.Row, opts.Rows)
	for i := range rows {
		rows[i] = relation.Row{
			relation.Float(float64(i) * 0.01),
			relation.Int(int64(i % opts.TableRows)),
			relation.Int(int64(i%4096) - 2048),
		}
	}
	rel := relation.FromRows(streamSchema, rows).Repartition(opts.Partitions)

	tableSchema := relation.NewSchema(
		relation.Column{Name: "mid", Kind: relation.KindInt},
		relation.Column{Name: "name", Kind: relation.KindString},
		relation.Column{Name: "rule", Kind: relation.KindString},
	)
	trows := make([]relation.Row, opts.TableRows)
	for i := range trows {
		trows[i] = relation.Row{
			relation.Int(int64(i)),
			relation.Str(fmt.Sprintf("unit-%03d/signal-channel-%d", i, i%7)),
			relation.Str(fmt.Sprintf("x * %d.0 / 128.0 + %d.0", i%13+1, i%29)),
		}
	}
	small := relation.FromRows(tableSchema, trows)

	// Join, evaluate, then project down to the interpreted signal stream
	// — the rule/name columns exist only to drive evaluation and never
	// travel back, exactly as in Algorithm 1's interpretation step.
	ops := []engine.OpDesc{
		engine.BroadcastJoin(small, []string{"mid"}, []string{"mid"}),
		engine.EvalRule("v", relation.KindFloat, "rule"),
		engine.Project("t", "mid", "v"),
	}
	return rel, ops
}

// Wire runs the broadcast-join stage once over a loopback cluster with
// protocol v3 and measures its bytes per task.
func Wire(ctx context.Context, opts WireOptions) (*WireResult, error) {
	opts = opts.withDefaults()
	rel, ops := wireStage(opts)

	addrs, stop, err := cluster.StartLocalCluster(ctx, opts.Executors)
	if err != nil {
		return nil, err
	}
	defer stop()
	drv := &cluster.Driver{
		Addrs:            addrs,
		SlotsPerExecutor: opts.Slots,
		Compress:         opts.Compress,
		CompressLevel:    opts.Level,
		Tracer:           opts.Tracer,
		Tasks:            opts.Tasks,
	}
	taskHistBefore := telemetry.Default().HistogramData("task_seconds")
	start := time.Now()
	out, st, err := drv.RunStage(ctx, rel, ops)
	if err != nil {
		return nil, err
	}
	wall := time.Since(start)
	taskHist := telemetry.Default().HistogramData("task_seconds").Sub(taskHistBefore)

	res := &WireResult{
		Rows:          rel.NumRows(),
		Partitions:    rel.NumPartitions(),
		Tasks:         st.Tasks,
		Compress:      opts.Compress,
		V3BytesSent:   st.BytesSent,
		V3BytesRecv:   st.BytesRecv,
		StagesShipped: st.StagesShipped,
		TaskP50Sec:    taskHist.Quantile(0.5),
		TaskP95Sec:    taskHist.Quantile(0.95),
		TaskP99Sec:    taskHist.Quantile(0.99),
		WallSec:       wall.Seconds(),
	}
	if st.Tasks > 0 {
		res.V3BytesPerTask = float64(st.BytesSent+st.BytesRecv) / float64(st.Tasks)
	}
	if n := rel.NumRows(); n > 0 {
		res.EncodeNsPerRow = float64(st.EncodeWall.Nanoseconds()) / float64(n)
		res.DecodeNsPerRow = float64(st.DecodeWall.Nanoseconds()) / float64(out.NumRows())
	}
	return res, nil
}

// WireCodec measures raw codec throughput on one partition of the wire
// stage, outside any cluster — the ns/op figures for BENCH_engine.json.
// Level pins the DEFLATE trade-off the driver default rests on: 0
// (flate.BestSpeed) vs flate.BestCompression encode cost per byte
// saved.
type WireCodecResult struct {
	RowsPerPartition int
	Compress         bool
	Level            int
	EncodeNsPerOp    float64
	DecodeNsPerOp    float64
	EncodedBytes     int
}

// WireCodec encodes and decodes a single partition repeatedly.
func WireCodec(opts WireOptions) (*WireCodecResult, error) {
	opts = opts.withDefaults()
	rel, _ := wireStage(opts)
	part := rel.Partitions[0]
	o := colcodec.Options{Compress: opts.Compress, Level: opts.Level}

	data, err := colcodec.Encode(rel.Schema, part, o)
	if err != nil {
		return nil, err
	}
	const iters = 50
	start := time.Now()
	for i := 0; i < iters; i++ {
		if _, err := colcodec.Encode(rel.Schema, part, o); err != nil {
			return nil, err
		}
	}
	encNs := float64(time.Since(start).Nanoseconds()) / iters
	start = time.Now()
	for i := 0; i < iters; i++ {
		if _, err := colcodec.Decode(rel.Schema, data); err != nil {
			return nil, err
		}
	}
	decNs := float64(time.Since(start).Nanoseconds()) / iters
	return &WireCodecResult{
		RowsPerPartition: len(part),
		Compress:         opts.Compress,
		Level:            opts.Level,
		EncodeNsPerOp:    encNs,
		DecodeNsPerOp:    decNs,
		EncodedBytes:     len(data),
	}, nil
}

// FormatWire renders wire results as an aligned table.
func FormatWire(results []*WireResult) string {
	var b strings.Builder
	b.WriteString("Wire: protocol v3 (stage-once + columnar), broadcast-join stage\n")
	fmt.Fprintf(&b, "%9s %6s %9s %14s %8s %12s %12s %9s %9s %9s\n",
		"compress", "tasks", "stages", "v3 B/task", "wall[s]", "enc ns/row", "dec ns/row",
		"p50[ms]", "p95[ms]", "p99[ms]")
	for _, r := range results {
		fmt.Fprintf(&b, "%9v %6d %9d %14.0f %8.3f %12.1f %12.1f %9.2f %9.2f %9.2f\n",
			r.Compress, r.Tasks, r.StagesShipped, r.V3BytesPerTask,
			r.WallSec, r.EncodeNsPerRow, r.DecodeNsPerRow,
			r.TaskP50Sec*1e3, r.TaskP95Sec*1e3, r.TaskP99Sec*1e3)
	}
	return b.String()
}
