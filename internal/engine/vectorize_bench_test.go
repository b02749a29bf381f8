package engine

import (
	"sort"
	"testing"

	"ivnt/internal/relation"
)

// cmd/benchmark -exp pipeline records the same workloads into the
// "pipeline" section of BENCH_engine.json.

// benchApply times StagePipeline.Apply of ops over an 8192-row
// partition.
func benchApply(b *testing.B, ops []OpDesc) {
	pipe, err := NewStagePipeline(vecTestSchema(), ops)
	if err != nil {
		b.Fatal(err)
	}
	part := vecTestRows(8192)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pipe.Apply(part); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFusedPipelineVec(b *testing.B) {
	benchApply(b, []OpDesc{
		Filter("mid != 2 && byteat(l, 0) < 6"),
		Project("t", "mid", "l", "v"),
		AddColumn("b0", relation.KindInt, "byteat(l, 0)"),
		AddColumn("x", relation.KindFloat, "coalesce(v, 0.0) * 0.5 + b0"),
	})
}

func BenchmarkBroadcastJoinVec(b *testing.B) {
	benchApply(b, []OpDesc{BroadcastJoin(vecJoinTable(), []string{"mid"}, []string{"rmid"})})
}

func BenchmarkSortWithinCompiled(b *testing.B) {
	part := vecTestRows(8192)
	less := compileComparator([]int{2, 0})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cp := make([]relation.Row, len(part))
		copy(cp, part)
		sort.SliceStable(cp, less(cp))
	}
}
