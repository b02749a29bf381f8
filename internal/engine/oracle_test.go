package engine_test

import (
	"slices"
	"testing"

	"ivnt/internal/engine"
	"ivnt/internal/oracle"
	"ivnt/internal/relation"
	"ivnt/internal/telemetry"
)

// vecPipelines is the coverage matrix: fused runs in every shape,
// window programs that must not fuse, joins with duplicate-key
// buckets, dynamic rules, and the pass-through operators.
func vecPipelines() map[string][]engine.OpDesc {
	join := engine.VecJoinTable()
	return map[string][]engine.OpDesc{
		"filter-only":       {engine.Filter("mid != 2")},
		"filter-chain":      {engine.Filter("mid != 2"), engine.Filter("byteat(l, 0) < 5")},
		"project-only":      {engine.Project("mid", "t")},
		"addcolumn-only":    {engine.AddColumn("b0", relation.KindInt, "byteat(l, 0)")},
		"fused-f-p-a":       {engine.Filter("mid != 2"), engine.Project("t", "mid", "l", "v"), engine.AddColumn("b0", relation.KindInt, "byteat(l, 0)")},
		"fused-a-f-p":       {engine.AddColumn("b0", relation.KindInt, "byteat(l, 0)"), engine.Filter("b0 > 1 && !isnull(v)"), engine.Project("t", "b0", "v")},
		"fused-deep":        {engine.AddColumn("x", relation.KindFloat, "coalesce(v, 0.0)"), engine.AddColumn("y", relation.KindFloat, "x * x + 1"), engine.Filter("y < 50"), engine.Project("t", "y"), engine.AddColumn("z", relation.KindFloat, "y / 2")},
		"window-filter":     {engine.Filter("isnull(lag(v)) || gap(t) > 0.005")},
		"window-addcolumn":  {engine.AddColumn("dv", relation.KindFloat, "delta(v)")},
		"window-mixed":      {engine.Filter("mid != 2"), engine.AddColumn("dt", relation.KindFloat, "gap(t)"), engine.Filter("dt > 0.0"), engine.Project("t", "mid", "dt")},
		"join":              {engine.BroadcastJoin(join, []string{"mid"}, []string{"rmid"})},
		"join-then-rule":    {engine.BroadcastJoin(join, []string{"mid"}, []string{"rmid"}), engine.EvalRule("val", relation.KindFloat, "rule")},
		"rule-after-fused":  {engine.Filter("mid == 3 || mid == 1"), engine.BroadcastJoin(join, []string{"mid"}, []string{"rmid"}), engine.EvalRule("val", relation.KindFloat, "rule"), engine.Filter("!isnull(val)"), engine.Project("t", "sid", "val")},
		"dedup":             {engine.Project("bid", "mid"), engine.DedupConsecutive("mid")},
		"sort":              {engine.SortWithin("mid", "t")},
		"sort-one-key":      {engine.SortWithin("v")},
		"agg":               {engine.PartialAgg([]string{"mid"}, []engine.AggSpec{{Fn: engine.AggCount, As: "n"}})},
		"kitchen-sink":      {engine.Filter("mid != 4"), engine.AddColumn("b0", relation.KindInt, "byteat(l, 0)"), engine.BroadcastJoin(join, []string{"mid"}, []string{"rmid"}), engine.EvalRule("val", relation.KindFloat, "rule"), engine.SortWithin("sid", "t"), engine.DedupConsecutive("sid", "val"), engine.Project("t", "sid", "val")},
		"empty-pipeline":    {},
		"addcolumn-strings": {engine.AddColumn("tag", relation.KindString, "upper(bid) + '-' + str(mid)"), engine.Filter("contains(tag, '3')")},
		"filter-none-pass":  {engine.Filter("mid == 99")},
		"filter-all-pass":   {engine.Filter("mid >= 0 || isnull(v)")},
	}
}

// rleTestRows builds a partition shaped like a decoded low-cardinality
// trace: every column piecewise-constant in long runs, with a null run
// in v.
func rleTestRows(n int) []relation.Row {
	rows := make([]relation.Row, n)
	for i := range rows {
		v := relation.Float(float64((i / 96) % 3))
		if (i/48)%5 == 4 {
			v = relation.Null()
		}
		rows[i] = relation.Row{
			relation.Float(float64(i) * 0.01),
			relation.Str([]string{"drive", "park"}[(i/128)%2]),
			relation.Int(int64((i / 64) % 4)),
			relation.Bytes([]byte{byte((i / 32) % 8)}),
			v,
		}
	}
	return rows
}

// applyMatchesOracle runs ops through StagePipeline.Apply and the
// row-at-a-time oracle and fails unless the outputs are bitwise equal
// (cell by cell with ==).
func applyMatchesOracle(t *testing.T, pipe *engine.StagePipeline, ops []engine.OpDesc, part []relation.Row) {
	t.Helper()
	_, want, err := oracle.RunPipeline(pipe.InputSchema(), part, ops)
	if err != nil {
		t.Fatal(err)
	}
	got, err := pipe.Apply(part)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.EqualFunc(got, want, slices.Equal[relation.Row]) {
		t.Fatalf("n=%d: Apply diverges from the oracle (%d vs %d rows)", len(part), len(got), len(want))
	}
}

// TestVectorizedMatchesRows is the engine-local differential check:
// every pipeline shape must produce bitwise-identical output on the
// vectorized Apply path and the row-at-a-time oracle, including
// partition sizes that are empty, smaller than a batch, and spanning
// several batches.
func TestVectorizedMatchesRows(t *testing.T) {
	sch := engine.VecTestSchema()
	for name, ops := range vecPipelines() {
		t.Run(name, func(t *testing.T) {
			pipe, err := engine.NewStagePipeline(sch, ops)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range []int{0, 1, 17, engine.BatchSize, engine.BatchSize + 1, 2*engine.BatchSize + 331} {
				applyMatchesOracle(t, pipe, ops, engine.VecTestRows(n))
			}
		})
	}
}

// TestRunSkipMatchesEval: fused filters over RLE-shaped data must
// produce output bitwise-identical to the oracle, which evaluates
// every row — while actually skipping evaluations wherever the filter
// reads only input columns. A filter reading a computed column must
// never skip: the scratch cells are not covered by the row comparison.
func TestRunSkipMatchesEval(t *testing.T) {
	sch := engine.VecTestSchema()
	cases := map[string]struct {
		ops   []engine.OpDesc
		skips bool
	}{
		"filter-const-col":   {[]engine.OpDesc{engine.Filter("mid != 2")}, true},
		"filter-chain":       {[]engine.OpDesc{engine.Filter("mid != 2"), engine.Filter("bid == 'drive'")}, true},
		"filter-null-runs":   {[]engine.OpDesc{engine.Filter("coalesce(v, 1.0) > 0.0")}, true},
		"filter-then-addcol": {[]engine.OpDesc{engine.Filter("mid < 3"), engine.AddColumn("b0", relation.KindInt, "byteat(l, 0)"), engine.Project("t", "mid", "b0")}, true},
		"filter-scratch-col": {[]engine.OpDesc{engine.AddColumn("b0", relation.KindInt, "byteat(l, 0)"), engine.Filter("b0 < 4")}, false},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			pipe, err := engine.NewStagePipeline(sch, tc.ops)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range []int{0, 1, 200, 512, engine.BatchSize + 100} {
				before := telemetry.Default().CounterValue("engine_runskip_rows_total")
				applyMatchesOracle(t, pipe, tc.ops, rleTestRows(n))
				delta := telemetry.Default().CounterValue("engine_runskip_rows_total") - before
				switch {
				case !tc.skips && delta != 0:
					t.Fatalf("n=%d: %d rows skipped through a scratch-referencing filter", n, delta)
				case tc.skips && n >= 200 && delta < int64(n/2):
					// Long runs mean the vast majority of rows reuse a verdict.
					t.Fatalf("n=%d: only %d evaluations skipped", n, delta)
				case n <= 1 && delta != 0:
					t.Fatalf("n=%d: %d skips on a run-free partition", n, delta)
				}
			}
		})
	}
}
