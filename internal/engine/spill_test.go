package engine

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"ivnt/internal/memgov"
	"ivnt/internal/relation"
)

// resetSpillDebug disarms every spill/panic debug hook when the test
// ends, so a failing subtest cannot poison the rest of the package run.
func resetSpillDebug(t *testing.T) {
	t.Helper()
	t.Cleanup(func() {
		DebugForceSpill.Store(false)
		SetDebugSpillFailure(nil)
		SetDebugSpillTruncate(0)
		SetDebugApplyHook(nil)
	})
}

// withBudget installs a temporary budget on the process governor and
// restores the previous one (normally unlimited) on cleanup.
func withBudget(t *testing.T, budget int64) *memgov.Governor {
	t.Helper()
	g := memgov.Default()
	old := g.Budget()
	g.SetBudget(budget)
	g.ResetHighWater()
	t.Cleanup(func() {
		g.SetBudget(old)
		g.ResetHighWater()
	})
	return g
}

// spillRows builds n trace-schema rows with heavy sort-key duplication
// (ties expose merge stability), plus null and empty payloads so the
// spill codec round-trip is exercised on every value shape.
func spillRows(n int) []relation.Row {
	rows := make([]relation.Row, n)
	for i := range rows {
		l := relation.Bytes([]byte{byte(i % 7), byte(i % 3), byte(i % 251)})
		switch i % 13 {
		case 0:
			l = relation.Null()
		case 1:
			l = relation.Bytes(nil)
		}
		rows[i] = relation.Row{
			relation.Float(float64(n-i) * 0.25),
			relation.Str(fmt.Sprintf("B%d", i%3)),
			relation.Int(int64(3 + i%2)),
			l,
		}
	}
	return rows
}

func rowsEq(t *testing.T, label string, want, got []relation.Row) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for ri := range want {
		if len(want[ri]) != len(got[ri]) {
			t.Fatalf("%s: row %d width %d, want %d", label, ri, len(got[ri]), len(want[ri]))
		}
		for ci := range want[ri] {
			if want[ri][ci] != got[ri][ci] {
				t.Fatalf("%s: row %d col %d = %v, want %v", label, ri, ci, got[ri][ci], want[ri][ci])
			}
		}
	}
}

func sortPipe(t *testing.T, cols ...string) *StagePipeline {
	t.Helper()
	pipe, err := NewStagePipeline(traceSchema(), []OpDesc{SortWithin(cols...)})
	if err != nil {
		t.Fatal(err)
	}
	return pipe
}

func aggPipe(t *testing.T) *StagePipeline {
	t.Helper()
	pipe, err := NewStagePipeline(traceSchema(), []OpDesc{PartialAgg(
		[]string{"bid", "mid"},
		[]AggSpec{
			{Fn: AggCount, As: "n"},
			{Fn: AggSum, Col: "t", As: "tsum"},
			{Fn: AggMean, Col: "t", As: "tmean"},
			{Fn: AggMin, Col: "t", As: "tmin"},
			{Fn: AggMax, Col: "t", As: "tmax"},
		})})
	if err != nil {
		t.Fatal(err)
	}
	return pipe
}

// TestSpillSortBitwiseEqual holds the external merge sort bitwise-equal
// to the in-memory sort.SliceStable path, on the forced single-run
// shape and on a tiny budget that produces many multi-block runs.
func TestSpillSortBitwiseEqual(t *testing.T) {
	rows := spillRows(4001)
	pipe := sortPipe(t, "mid", "bid")
	want, err := pipe.ApplyRows(rows)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("forced", func(t *testing.T) {
		resetSpillDebug(t)
		before := mSpills.With("sortwithin").Value()
		DebugForceSpill.Store(true)
		got, err := pipe.ApplyRows(rows)
		if err != nil {
			t.Fatal(err)
		}
		rowsEq(t, "forced spill sort", want, got)
		if d := mSpills.With("sortwithin").Value() - before; d < 1 {
			t.Fatalf("engine_spills_total{op=sortwithin} delta = %d, want >= 1", d)
		}
	})

	t.Run("tiny-budget", func(t *testing.T) {
		resetSpillDebug(t)
		g := withBudget(t, 16<<10)
		beforeBytes := mSpillBytes.With("sortwithin").Value()
		got, err := pipe.ApplyRows(rows)
		if err != nil {
			t.Fatal(err)
		}
		rowsEq(t, "tiny-budget sort", want, got)
		if d := mSpillBytes.With("sortwithin").Value() - beforeBytes; d <= 0 {
			t.Fatalf("engine_spill_bytes_total{op=sortwithin} delta = %d, want > 0", d)
		}
		if g.Denials() == 0 {
			t.Fatal("governor recorded no denials under a 16KiB budget")
		}
	})
}

// TestSpillSortEdgeShapes covers the degenerate inputs: an empty
// partition, a single row, and a segment boundary exactly at the end.
func TestSpillSortEdgeShapes(t *testing.T) {
	resetSpillDebug(t)
	DebugForceSpill.Store(true)
	pipe := sortPipe(t, "mid", "t")
	for _, n := range []int{0, 1, 2, 17} {
		rows := spillRows(n)
		got, err := pipe.ApplyRows(rows)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		DebugForceSpill.Store(false)
		want, err := pipe.ApplyRows(rows)
		DebugForceSpill.Store(true)
		if err != nil {
			t.Fatal(err)
		}
		rowsEq(t, fmt.Sprintf("spill sort n=%d", n), want, got)
	}
}

// TestSpillAggBitwiseEqual holds grace hash aggregation bitwise-equal
// to the in-memory hash table, including float sums whose accumulation
// order must survive the shard detour.
func TestSpillAggBitwiseEqual(t *testing.T) {
	rows := spillRows(3000)
	pipe := aggPipe(t)
	want, err := pipe.ApplyRows(rows)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("forced", func(t *testing.T) {
		resetSpillDebug(t)
		before := mSpills.With("partialagg").Value()
		DebugForceSpill.Store(true)
		got, err := pipe.ApplyRows(rows)
		if err != nil {
			t.Fatal(err)
		}
		rowsEq(t, "forced spill agg", want, got)
		if d := mSpills.With("partialagg").Value() - before; d < 1 {
			t.Fatalf("engine_spills_total{op=partialagg} delta = %d, want >= 1", d)
		}
	})

	t.Run("tiny-budget", func(t *testing.T) {
		resetSpillDebug(t)
		withBudget(t, 16<<10)
		got, err := pipe.ApplyRows(rows)
		if err != nil {
			t.Fatal(err)
		}
		rowsEq(t, "tiny-budget agg", want, got)
	})
}

// TestSpillVectorizedPathEqual runs the same governed kernels through
// Apply with the vectorized planner on and off: applyVecSingle routes
// sort/agg to the row kernels, so the spill paths must be identical.
func TestSpillVectorizedPathEqual(t *testing.T) {
	resetSpillDebug(t)
	rows := spillRows(2000)
	old := Vectorize.Load()
	t.Cleanup(func() { Vectorize.Store(old) })

	for _, pipe := range []*StagePipeline{sortPipe(t, "mid", "bid"), aggPipe(t)} {
		want, err := pipe.ApplyRows(rows)
		if err != nil {
			t.Fatal(err)
		}
		DebugForceSpill.Store(true)
		for _, vec := range []bool{false, true} {
			Vectorize.Store(vec)
			got, err := pipe.Apply(rows)
			if err != nil {
				t.Fatal(err)
			}
			rowsEq(t, fmt.Sprintf("vectorize=%v", vec), want, got)
		}
		DebugForceSpill.Store(false)
	}
}

// TestMergePartialsSpillEqual drives the governed FinalAggregate merge
// down its external path and holds it bitwise-equal to the in-memory
// merge across multi-partition partials.
func TestMergePartialsSpillEqual(t *testing.T) {
	groupBy := []string{"bid", "mid"}
	aggs := []AggSpec{
		{Fn: AggCount, As: "n"},
		{Fn: AggSum, Col: "t", As: "tsum"},
		{Fn: AggMean, Col: "t", As: "tmean"},
	}
	rel := relation.FromRows(traceSchema(), spillRows(2400)).Repartition(7)
	partials := &relation.Relation{Partitions: make([][]relation.Row, len(rel.Partitions))}
	for pi, part := range rel.Partitions {
		rows, err := applyPartialAgg(rel.Schema, part, groupBy, aggs)
		if err != nil {
			t.Fatal(err)
		}
		partials.Partitions[pi] = rows
	}
	ps, err := partialAggSchema(rel.Schema, groupBy, aggs)
	if err != nil {
		t.Fatal(err)
	}
	partials.Schema = ps

	want, err := MergePartials(partials, groupBy, aggs)
	if err != nil {
		t.Fatal(err)
	}

	resetSpillDebug(t)
	before := mSpills.With("finalagg").Value()
	DebugForceSpill.Store(true)
	got, err := MergePartials(partials, groupBy, aggs)
	if err != nil {
		t.Fatal(err)
	}
	rowsEq(t, "external merge partials", want.Rows(), got.Rows())
	if !want.Schema.Equal(got.Schema) {
		t.Fatalf("schema diverged: %s vs %s", want.Schema, got.Schema)
	}
	if d := mSpills.With("finalagg").Value() - before; d < 1 {
		t.Fatalf("engine_spills_total{op=finalagg} delta = %d, want >= 1", d)
	}
}

// TestSortRelationSpillEqual holds the governed global sort equal to
// relation.SortBy, and checks the unknown-key error path.
func TestSortRelationSpillEqual(t *testing.T) {
	resetSpillDebug(t)
	rel := relation.FromRows(traceSchema(), spillRows(3000)).Repartition(5)
	want, err := rel.SortBy(true, "mid", "bid")
	if err != nil {
		t.Fatal(err)
	}
	DebugForceSpill.Store(true)
	got, err := SortRelation(rel, "mid", "bid")
	if err != nil {
		t.Fatal(err)
	}
	rowsEq(t, "external global sort", want.Rows(), got.Rows())

	if _, err := SortRelation(rel, "nope"); err == nil || !strings.Contains(err.Error(), "sort key") {
		t.Fatalf("unknown key error = %v", err)
	}
}

// TestSpillBudgetBoundary pins the grant-admission boundary: a budget
// exactly equal to the declared working set stays in memory; one byte
// less spills.
func TestSpillBudgetBoundary(t *testing.T) {
	resetSpillDebug(t)
	rows := spillRows(512)
	need := RowsFootprint(rows)
	pipe := sortPipe(t, "mid")
	want, err := pipe.ApplyRows(rows)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("exact-fit", func(t *testing.T) {
		withBudget(t, need)
		before := mSpills.With("sortwithin").Value()
		got, err := pipe.ApplyRows(rows)
		if err != nil {
			t.Fatal(err)
		}
		rowsEq(t, "exact-fit sort", want, got)
		if d := mSpills.With("sortwithin").Value() - before; d != 0 {
			t.Fatalf("budget == need spilled %d times, want in-memory", d)
		}
	})

	t.Run("one-byte-short", func(t *testing.T) {
		withBudget(t, need-1)
		before := mSpills.With("sortwithin").Value()
		got, err := pipe.ApplyRows(rows)
		if err != nil {
			t.Fatal(err)
		}
		rowsEq(t, "one-byte-short sort", want, got)
		if d := mSpills.With("sortwithin").Value() - before; d != 1 {
			t.Fatalf("budget == need-1 spilled %d times, want exactly 1", d)
		}
	})
}

// TestSpillBoundedWorkingSet runs a working set four times the budget
// through the governed kernels and asserts the governor's high-water
// mark stays bounded: the whole point of degrading to disk.
func TestSpillBoundedWorkingSet(t *testing.T) {
	resetSpillDebug(t)
	const budget = 64 << 10

	// ~157 bytes/row (32-byte cells) -> >= 4x the 64KiB budget.
	rows := spillRows(2048)
	if foot := RowsFootprint(rows); foot < 4*budget {
		t.Fatalf("workload footprint %d < 4x budget %d; grow the input", foot, 4*budget)
	}

	sp := sortPipe(t, "mid", "bid")
	ap := aggPipe(t)
	wantSort, err := sp.ApplyRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	wantAgg, err := ap.ApplyRows(rows)
	if err != nil {
		t.Fatal(err)
	}

	g := withBudget(t, budget)

	g.ResetHighWater()
	gotSort, err := sp.ApplyRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	rowsEq(t, "bounded sort", wantSort, gotSort)
	if hw := g.HighWater(); hw > budget {
		t.Fatalf("sort high-water %d exceeds budget %d", hw, budget)
	}

	// Grace hash aggregation is bounded per shard, not per byte: with 6
	// distinct group keys over 8 shards, the worst shard can hold a
	// multiple of input/8 (the skew caveat in docs/MEMORY.md), so the
	// bound is a small multiple of the budget — still far below the 4x
	// working set that an ungoverned pass would pin.
	g.ResetHighWater()
	gotAgg, err := ap.ApplyRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	rowsEq(t, "bounded agg", wantAgg, gotAgg)
	if hw := g.HighWater(); hw > 2*budget {
		t.Fatalf("agg high-water %d exceeds 2x budget %d", hw, 2*budget)
	}
}

// TestSpillFaultInjection verifies the error taxonomy: every injected
// spill I/O failure surfaces as a retryable task error (never a panic,
// never a process death), and a transient fault succeeds on retry.
func TestSpillFaultInjection(t *testing.T) {
	rows := spillRows(600)
	pipe := sortPipe(t, "mid")
	want, err := pipe.ApplyRows(rows)
	if err != nil {
		t.Fatal(err)
	}

	for _, op := range []string{"create", "write", "read"} {
		t.Run(op, func(t *testing.T) {
			resetSpillDebug(t)
			DebugForceSpill.Store(true)
			SetDebugSpillFailure(func(got string) error {
				if got == op {
					return errors.New("injected: no space left on device")
				}
				return nil
			})
			_, err := pipe.ApplyRows(rows)
			if err == nil {
				t.Fatalf("spill %s fault produced no error", op)
			}
			if !IsRetryable(err) {
				t.Fatalf("spill %s fault not retryable: %v", op, err)
			}
			if !strings.Contains(err.Error(), "spill "+op) {
				t.Fatalf("spill %s fault lacks operation context: %v", op, err)
			}
		})
	}

	t.Run("transient-then-recover", func(t *testing.T) {
		resetSpillDebug(t)
		DebugForceSpill.Store(true)
		var remaining atomic.Int64
		remaining.Store(1)
		SetDebugSpillFailure(func(op string) error {
			if op == "create" && remaining.Add(-1) >= 0 {
				return errors.New("injected ENOSPC")
			}
			return nil
		})
		if _, err := pipe.ApplyRows(rows); !IsRetryable(err) {
			t.Fatalf("first attempt: %v, want retryable", err)
		}
		// The "disk" recovers; the retried task must now succeed — the
		// requeue contract the cluster driver builds on.
		got, err := pipe.ApplyRows(rows)
		if err != nil {
			t.Fatalf("retry after fault cleared: %v", err)
		}
		rowsEq(t, "retry after transient fault", want, got)
	})

	t.Run("truncated-run", func(t *testing.T) {
		resetSpillDebug(t)
		DebugForceSpill.Store(true)
		SetDebugSpillTruncate(5)
		_, err := pipe.ApplyRows(rows)
		if err == nil || !IsRetryable(err) {
			t.Fatalf("truncated spill run: err = %v, want retryable", err)
		}
	})
}

// TestErrorTaxonomy pins the wrapping contract the driver relies on.
func TestErrorTaxonomy(t *testing.T) {
	if Retryable(nil) != nil {
		t.Fatal("Retryable(nil) != nil")
	}
	wrapped := fmt.Errorf("stage 3: %w", Retryable(errors.New("disk full")))
	if !IsRetryable(wrapped) {
		t.Fatal("IsRetryable lost through fmt.Errorf wrapping")
	}
	if IsRetryable(errors.New("plain")) || IsPanic(errors.New("plain")) {
		t.Fatal("plain error misclassified")
	}
	pe := &PanicError{Val: "boom", Stack: []byte("stack")}
	if !IsPanic(fmt.Errorf("task: %w", pe)) {
		t.Fatal("IsPanic lost through wrapping")
	}
	if !strings.Contains(pe.Error(), "task panic: boom") {
		t.Fatalf("PanicError text = %q", pe.Error())
	}
}

// TestPanicContainmentLocal injects a panicking operator into the local
// executor: the stage must fail with a diagnosable PanicError while the
// process (and the executor for later stages) stays alive.
func TestPanicContainmentLocal(t *testing.T) {
	resetSpillDebug(t)
	SetDebugApplyHook(func() { panic("boom") })
	exec := NewLocal(2)
	_, _, err := exec.RunStage(ctx, makeTrace(50, 4), []OpDesc{Filter("mid == 3")})
	if err == nil {
		t.Fatal("panicking stage returned no error")
	}
	if !IsPanic(err) {
		t.Fatalf("stage error is not a PanicError: %v", err)
	}
	if !strings.Contains(err.Error(), "task panic: boom") {
		t.Fatalf("panic diagnostic missing value: %v", err)
	}

	// Containment means the executor is still usable afterwards.
	SetDebugApplyHook(nil)
	out, _, err := exec.RunStage(ctx, makeTrace(50, 4), []OpDesc{Filter("mid == 3")})
	if err != nil {
		t.Fatalf("executor unusable after contained panic: %v", err)
	}
	if out.NumRows() != 25 {
		t.Fatalf("rows after recovery = %d, want 25", out.NumRows())
	}
}

// TestVerifySpillMetrics gates the spill metric catalogue the same way
// VerifyOpMetrics gates the operator histograms.
func TestVerifySpillMetrics(t *testing.T) {
	if err := VerifySpillMetrics(); err != nil {
		t.Fatal(err)
	}
}
