package engine

import (
	"testing"

	"ivnt/internal/relation"
)

// TestRunSkipDisabledForScratchRefs: a filter reading a computed column
// must not run-skip — the scratch cells are not covered by the row
// comparison — and the planner encodes that as a nil skipCols
// (TestRunSkipMatchesEval checks the counter stays flat at run time).
func TestRunSkipDisabledForScratchRefs(t *testing.T) {
	sch := vecTestSchema()
	pipe, err := NewStagePipeline(sch, []OpDesc{
		AddColumn("b0", relation.KindInt, "byteat(l, 0)"),
		Filter("b0 < 4"),
	})
	if err != nil {
		t.Fatal(err)
	}
	var filters, skippable int
	for _, seg := range pipe.vec {
		if seg.fused == nil {
			continue
		}
		for _, st := range seg.fused.steps {
			if st.dst < 0 {
				filters++
				if st.skipCols != nil {
					skippable++
				}
			}
		}
	}
	if filters != 1 || skippable != 0 {
		t.Fatalf("filters=%d skippable=%d, want 1 filter with skipping disabled", filters, skippable)
	}
}

// TestSkipColumnsPlan pins the planner side: an input-only filter gets
// exactly the columns it reads, a window filter never fuses at all (and
// so never reaches skipColumns with window code).
func TestSkipColumnsPlan(t *testing.T) {
	sch := vecTestSchema()
	pipe, err := NewStagePipeline(sch, []OpDesc{Filter("mid != 2 && bid == 'drive'")})
	if err != nil {
		t.Fatal(err)
	}
	if len(pipe.vec) != 1 || pipe.vec[0].fused == nil {
		t.Fatal("filter did not fuse")
	}
	got := pipe.vec[0].fused.steps[0].skipCols
	// Columns bid=1, mid=2 in schema order.
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("skipCols = %v, want [1 2]", got)
	}
}
