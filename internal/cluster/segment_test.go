package cluster

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"ivnt/internal/engine"
	"ivnt/internal/relation"
	"ivnt/internal/segstore"
)

// segTestStore builds a store of nSegs segments with disjoint,
// monotonically increasing ts ranges — the natural clustering a
// time-ordered trace gives zone maps to work with.
func segTestStore(t *testing.T, nSegs, rowsPerSeg int) *segstore.Store {
	t.Helper()
	s := relation.NewSchema(
		relation.Column{Name: "ts", Kind: relation.KindInt},
		relation.Column{Name: "val", Kind: relation.KindFloat},
		relation.Column{Name: "sid", Kind: relation.KindString},
	)
	st, err := segstore.Open(t.TempDir(), s, segstore.Options{Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < nSegs; g++ {
		rows := make([]relation.Row, rowsPerSeg)
		for i := range rows {
			ts := g*rowsPerSeg + i
			rows[i] = relation.Row{
				relation.Int(int64(ts)),
				relation.Float(math.Sin(float64(ts))),
				relation.Str(fmt.Sprintf("sig-%d", ts%7)),
			}
		}
		if err := st.AppendSegment(rows); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// bitEq compares relations partition-by-partition, cell-by-cell, with
// float cells compared by bit pattern.
func bitEq(a, b *relation.Relation) bool {
	if !a.Schema.Equal(b.Schema) || len(a.Partitions) != len(b.Partitions) {
		return false
	}
	for pi := range a.Partitions {
		pa, pb := a.Partitions[pi], b.Partitions[pi]
		if len(pa) != len(pb) {
			return false
		}
		for ri := range pa {
			if !slices.Equal(pa[ri], pb[ri]) { // cell == is bitwise
				return false
			}
		}
	}
	return true
}

// TestSegmentStageMatchesLocal proves segment-scheduled cluster scans:
// executors read the segment files themselves (taskMsg carries a path,
// not rows), zone maps prune driver-side, and the result is bitwise
// identical to the local executor running the same scan.
func TestSegmentStageMatchesLocal(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	addrs, stop, err := StartLocalCluster(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	st := segTestStore(t, 6, 50)
	drv := &Driver{Addrs: addrs, SlotsPerExecutor: 2}

	for _, ops := range [][]engine.OpDesc{
		{engine.Filter("ts < 120"), engine.Project("ts", "sid")},
		{engine.Filter("ts >= 100 && ts < 160"), engine.AddColumn("v2", relation.KindFloat, "val * 2.0")},
		{engine.Project("sid", "val")},
		{engine.Filter("ts < -1")}, // prunes every segment
	} {
		want, _, err := engine.ScanStage(ctx, engine.NewLocal(2), st, ops)
		if err != nil {
			t.Fatal(err)
		}
		got, cst, err := engine.ScanStage(ctx, drv, st, ops)
		if err != nil {
			t.Fatal(err)
		}
		if !bitEq(want, got) {
			t.Fatalf("ops %v: cluster segment scan diverged from local (%d vs %d rows)",
				ops, got.NumRows(), want.NumRows())
		}
		if cst.Partitions != st.NumSegments() {
			t.Fatalf("ops %v: %d partitions, want one per segment (%d)", ops, cst.Partitions, st.NumSegments())
		}
	}
}

// TestSegmentStagePrunesWithoutShipping asserts the scheduling
// contract directly: pruned refs never become wire tasks, live refs
// ship as paths with no partition payload, and RowsIn counts only the
// rows executors actually decode.
func TestSegmentStagePrunesWithoutShipping(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	addrs, stop, err := StartLocalCluster(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	st := segTestStore(t, 4, 25)
	drv := &Driver{Addrs: addrs}

	ops := []engine.OpDesc{engine.Filter("ts < 30"), engine.Project("ts")}
	pd, err := engine.FoldPushdown(st.ScanSchema(), ops)
	if err != nil {
		t.Fatal(err)
	}
	refs, err := st.Segments(pd)
	if err != nil {
		t.Fatal(err)
	}
	pruned := 0
	for _, r := range refs {
		if r.Pruned {
			pruned++
		}
	}
	if pruned != 2 {
		t.Fatalf("want segments 2 and 3 pruned, got %d of %+v", pruned, refs)
	}
	out, cst, err := engine.ScanStage(ctx, drv, st, ops)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 30 {
		t.Fatalf("scan returned %d rows, want 30", out.NumRows())
	}
	if wantIn := (len(refs) - pruned) * 25; cst.RowsIn != wantIn {
		t.Fatalf("RowsIn %d, want %d (pruned segments never decode)", cst.RowsIn, wantIn)
	}
	// Pruned partitions exist but are empty — indexes stay stable.
	if len(out.Partitions) != len(refs) {
		t.Fatalf("%d output partitions, want %d", len(out.Partitions), len(refs))
	}
	for pi := 2; pi < 4; pi++ {
		if len(out.Partitions[pi]) != 0 {
			t.Fatalf("pruned partition %d has %d rows", pi, len(out.Partitions[pi]))
		}
	}
}

// TestSegmentStageBadPath: an unreadable segment path exhausts its
// retries (read failures are environmental) and aborts the stage with
// the read error, not a hang.
func TestSegmentStageBadPath(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	addrs, stop, err := StartLocalCluster(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	drv := &Driver{Addrs: addrs, MaxRetries: 1}
	s := relation.NewSchema(relation.Column{Name: "ts", Kind: relation.KindInt})
	refs := []engine.SegmentRef{{Path: "/nonexistent/seg-000000.ivsg", Rows: 10}}
	if _, _, err := drv.RunSegmentStage(ctx, refs, s, []engine.OpDesc{engine.Filter("ts > 0")}); err == nil {
		t.Fatal("unreadable segment must fail the stage")
	}
}
