package engine

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"ivnt/internal/relation"
)

// vecTestRows builds a partition with value variety (nulls, runs,
// duplicate join keys, rule text) sized to cross batch boundaries.
func vecTestRows(n int) []relation.Row {
	rng := rand.New(rand.NewSource(7))
	rows := make([]relation.Row, n)
	for i := range rows {
		var v relation.Value
		switch rng.Intn(4) {
		case 0:
			v = relation.Null()
		default:
			v = relation.Float(rng.NormFloat64() * 10)
		}
		rows[i] = relation.Row{
			relation.Float(float64(i) * 0.01),
			relation.Str("FC"),
			relation.Int(int64(i % 5)),
			relation.Bytes([]byte{byte(i % 7), byte(i % 3), byte(rng.Intn(256))}),
			v,
		}
	}
	return rows
}

func vecTestSchema() relation.Schema {
	return relation.NewSchema(
		relation.Column{Name: "t", Kind: relation.KindFloat},
		relation.Column{Name: "bid", Kind: relation.KindString},
		relation.Column{Name: "mid", Kind: relation.KindInt},
		relation.Column{Name: "l", Kind: relation.KindBytes},
		relation.Column{Name: "v", Kind: relation.KindFloat},
	)
}

func vecJoinTable() *relation.Relation {
	s := relation.NewSchema(
		relation.Column{Name: "rmid", Kind: relation.KindInt},
		relation.Column{Name: "sid", Kind: relation.KindString},
		relation.Column{Name: "rule", Kind: relation.KindString},
	)
	// mid 3 maps to two signals: a duplicate-key (uniform) bucket.
	return relation.FromRows(s, []relation.Row{
		{relation.Int(0), relation.Str("wpos"), relation.Str("0.5 * byteat(l, 0)")},
		{relation.Int(1), relation.Str("wvel"), relation.Str("byteat(l, 1) - 1")},
		{relation.Int(3), relation.Str("heat"), relation.Str("byteat(l, 0) + 2")},
		{relation.Int(3), relation.Str("cool"), relation.Str("coalesce(v, 0.0) * 2")},
	})
}

// vecRuleTable is a broadcast table carrying two rule columns keyed by
// mid, the shape of U_comb: u1 slices the payload, u2 reads u1's
// output column.
func vecRuleTable(u2 string) *relation.Relation {
	s := relation.NewSchema(
		relation.Column{Name: "rmid", Kind: relation.KindInt},
		relation.Column{Name: "sid", Kind: relation.KindString},
		relation.Column{Name: "u1", Kind: relation.KindString},
		relation.Column{Name: "u2", Kind: relation.KindString},
	)
	return relation.FromRows(s, []relation.Row{
		{relation.Int(1), relation.Str("a"), relation.Str("slice(l, 0, 2)"), relation.Str("ube(lrel, 0, 2)")},
		{relation.Int(3), relation.Str("b"), relation.Str("slice(l, 1, 2)"), relation.Str(u2)},
		{relation.Int(3), relation.Str("c"), relation.Str(""), relation.Str("")},
	})
}

// vecPairTable is a semijoin table: key columns only, mids 1 and 3.
func vecPairTable() *relation.Relation {
	return relation.FromRows(relation.NewSchema(relation.Column{Name: "pmid", Kind: relation.KindInt}),
		[]relation.Row{{relation.Int(1)}, {relation.Int(3)}})
}

// vecWideTable maps mid 3 to n build rows (k = 0..n-1): one probe row
// fans out to more virtual rows than a batch holds when n > batchSize.
func vecWideTable(n int) *relation.Relation {
	s := relation.NewSchema(
		relation.Column{Name: "wmid", Kind: relation.KindInt},
		relation.Column{Name: "k", Kind: relation.KindInt},
	)
	rows := make([]relation.Row, n)
	for i := range rows {
		rows[i] = relation.Row{relation.Int(3), relation.Int(int64(i))}
	}
	return relation.FromRows(s, rows)
}

// interpOps is interp.Plan's op shape over the vec test schema: join →
// u1 EvalRule → Project → u2 EvalRule → Project.
func interpOps(table *relation.Relation) []OpDesc {
	return []OpDesc{
		BroadcastJoin(table, []string{"mid"}, []string{"rmid"}),
		EvalRule("lrel", relation.KindBytes, "u1"),
		Project("t", "bid", "sid", "lrel", "u2"),
		EvalRule("val", relation.KindNull, "u2"),
		Project("t", "sid", "val", "bid"),
	}
}

// TestVecPlanShapes pins the planner's fusion decisions: window-free
// Filter/Project/AddColumn runs fuse, broadcast joins head runs, an
// EvalRule fuses when a leading join of its run carries its rule
// column and no rule there reads window history, and window programs
// and the remaining operators stay single segments.
func TestVecPlanShapes(t *testing.T) {
	sch := vecTestSchema()
	join := BroadcastJoin(vecJoinTable(), []string{"mid"}, []string{"rmid"})
	cases := []struct {
		name     string
		ops      []OpDesc
		segments int
		fused    []bool
	}{
		{"all-fused", []OpDesc{Filter("mid != 2"), Project("t", "mid", "l"), AddColumn("b0", relation.KindInt, "byteat(l, 0)")}, 1, []bool{true}},
		{"window-splits", []OpDesc{Filter("mid != 2"), AddColumn("dt", relation.KindFloat, "gap(t)"), Filter("dt > 0.0")}, 3, []bool{true, false, true}},
		{"join-heads-run", []OpDesc{Filter("mid != 2"), join, Project("t", "sid")}, 2, []bool{true, true}},
		{"joins-chain", []OpDesc{BroadcastJoin(vecPairTable(), []string{"mid"}, []string{"pmid"}), join, Filter("mid == 3")}, 1, []bool{true}},
		{"join-on-kept-col-splits", []OpDesc{join, BroadcastJoin(vecPairTable(), []string{"rule"}, []string{"pmid"}), Project("t")}, 2, []bool{true, true}},
		{"project-then-join-splits", []OpDesc{Project("mid", "t"), join}, 2, []bool{true, true}},
		{"join-project-join-splits", []OpDesc{join, Project("mid", "sid"), BroadcastJoin(vecPairTable(), []string{"mid"}, []string{"pmid"})}, 2, []bool{true, true}},
		{"interp-plan", interpOps(vecRuleTable("ube(lrel, 0, 1) * 2")), 1, []bool{true}},
		{"window-rule-alone", interpOps(vecRuleTable("lag(t)")), 3, []bool{true, false, true}},
		{"addcolumn-rule-alone", []OpDesc{AddColumn("r", relation.KindString, "'mid + 1'"), EvalRule("val", relation.KindInt, "r"), Project("t", "val")}, 3, []bool{true, false, true}},
		{"sort-alone", []OpDesc{SortWithin("t")}, 1, []bool{false}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pipe, err := NewStagePipeline(sch, tc.ops)
			if err != nil {
				t.Fatal(err)
			}
			if len(pipe.vec) != tc.segments {
				t.Fatalf("plan has %d segments, want %d", len(pipe.vec), tc.segments)
			}
			for i, seg := range pipe.vec {
				if (seg.fused != nil) != tc.fused[i] {
					t.Fatalf("segment %d fused=%v, want %v", i, seg.fused != nil, tc.fused[i])
				}
			}
		})
	}
}

// TestFusedRunMaterializesOnce checks the fused-output aliasing
// contract: a fused run with any Project/AddColumn builds fresh
// slab-backed rows (mutating input afterwards must not leak through),
// while a filters-only run passes input row references through.
func TestFusedRunMaterializesOnce(t *testing.T) {
	sch := vecTestSchema()
	part := vecTestRows(100)

	pipe, err := NewStagePipeline(sch, []OpDesc{AddColumn("b0", relation.KindInt, "byteat(l, 0)")})
	if err != nil {
		t.Fatal(err)
	}
	out, err := pipe.Apply(part)
	if err != nil {
		t.Fatal(err)
	}
	if &out[0][0] == &part[0][0] {
		t.Fatal("materializing fused run aliases input rows")
	}

	filt, err := NewStagePipeline(sch, []OpDesc{Filter("mid >= 0")})
	if err != nil {
		t.Fatal(err)
	}
	out, err = filt.Apply(part)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(part) || &out[0][0] != &part[0][0] {
		t.Fatal("filters-only fused run should pass through input row references")
	}

	// A semijoin (a table of key columns only) keeps no build cells, so
	// its run passes the matching probe rows through as references.
	semi, err := NewStagePipeline(sch, []OpDesc{BroadcastJoin(vecPairTable(), []string{"mid"}, []string{"pmid"}), Filter("!isnull(t)")})
	if err != nil {
		t.Fatal(err)
	}
	out, err = semi.Apply(part)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 40 {
		t.Fatalf("semijoin kept %d rows, want 40", len(out))
	}
	for _, r := range out {
		if i := int(r[2].I()); &r[0] != &part[int(r[0].F()*100+0.5)][0] || (i != 1 && i != 3) {
			t.Fatal("semijoin-only fused run should pass through the matching input row references")
		}
	}
}

// TestFusedRuleErrorParity: a build-table rule that does not compile
// fails Apply with the oracle's message exactly when an unfiltered row
// reaches it, and is harmless when every such row is filtered out
// first.
func TestFusedRuleErrorParity(t *testing.T) {
	sch := vecTestSchema()
	part := vecTestRows(50)
	bad := vecRuleTable("ube(lrel, 0,")
	for _, tc := range []struct {
		name    string
		ops     []OpDesc
		wantErr bool
	}{
		{"reached", interpOps(bad), true},
		{"filtered-before", append([]OpDesc{Filter("mid != 3")}, interpOps(bad)...), false},
		{"filtered-inside", append(interpOps(bad)[:2:2], Filter("sid != 'b'"), Project("t", "bid", "sid", "lrel", "u2"),
			EvalRule("val", relation.KindNull, "u2")), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pipe, err := NewStagePipeline(sch, tc.ops)
			if err != nil {
				t.Fatal(err)
			}
			if last := pipe.vec[len(pipe.vec)-1]; last.fused == nil || len(last.fused.joins) != 1 {
				t.Fatal("the rule-carrying join does not head a fused run")
			}
			_, err = pipe.Apply(part)
			if !tc.wantErr {
				if err != nil {
					t.Fatalf("unreached bad rule failed Apply: %v", err)
				}
				return
			}
			want := `engine: row rule "ube(lrel, 0,": `
			if err == nil || !strings.HasPrefix(err.Error(), want) {
				t.Fatalf("Apply error = %v, want prefix %q", err, want)
			}
		})
	}
}

// TestFusedCountersAdvance checks the telemetry satellite: a fused run
// bumps engine_vectorized_batches_total and the per-op fused-step
// counters for exactly its constituent kinds.
func TestFusedCountersAdvance(t *testing.T) {
	sch := vecTestSchema()
	pipe, err := NewStagePipeline(sch, []OpDesc{Filter("mid != 2"), Project("t", "mid"), SortWithin("t")})
	if err != nil {
		t.Fatal(err)
	}
	b0 := vectorizedBatchesCtr.Value()
	f0 := fusedStepsCtr[OpFilter].Value()
	p0 := fusedStepsCtr[OpProject].Value()
	s0 := fusedStepsCtr[OpSortWithin].Value()
	if _, err := pipe.Apply(vecTestRows(3 * batchSize)); err != nil {
		t.Fatal(err)
	}
	if got := vectorizedBatchesCtr.Value() - b0; got != 3 {
		t.Fatalf("vectorized batches delta = %d, want 3", got)
	}
	if fusedStepsCtr[OpFilter].Value() != f0+1 || fusedStepsCtr[OpProject].Value() != p0+1 {
		t.Fatal("fused-step counters for filter/project did not advance by one run")
	}
	if fusedStepsCtr[OpSortWithin].Value() != s0 {
		t.Fatal("sortwithin is not fusable and must not count as a fused step")
	}
}

// TestDebugMutateSelection proves the injection hook actually changes
// fused-run output — the property the difftest injected-bug test
// relies on.
func TestDebugMutateSelection(t *testing.T) {
	sch := vecTestSchema()
	pipe, err := NewStagePipeline(sch, []OpDesc{Filter("mid >= 0"), Project("t", "mid")})
	if err != nil {
		t.Fatal(err)
	}
	part := vecTestRows(10)
	DebugMutateSelection = func(sel []int32) []int32 {
		if len(sel) > 0 {
			return sel[:len(sel)-1]
		}
		return sel
	}
	defer func() { DebugMutateSelection = nil }()
	got, err := pipe.Apply(part)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(part)-1 {
		t.Fatalf("selection mutation dropped %d rows, want 1", len(part)-len(got))
	}
}

// TestStatsAddExhaustive walks Stats with reflection: setting any
// single field of the operand must show up in the sum, so a new
// counter added to the struct without an Add line fails here instead
// of silently dropping data.
func TestStatsAddExhaustive(t *testing.T) {
	typ := reflect.TypeOf(Stats{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		var o Stats
		ov := reflect.ValueOf(&o).Elem().Field(i)
		switch f.Type.Kind() {
		case reflect.Int, reflect.Int64:
			ov.SetInt(int64(i + 1))
		default:
			t.Fatalf("Stats field %s has unsupported kind %s; teach this test about it", f.Name, f.Type.Kind())
		}
		var sum Stats
		sum.Add(o)
		if got := reflect.ValueOf(sum).Field(i).Int(); got != int64(i+1) {
			t.Fatalf("Stats.Add drops field %s: sum has %d, want %d", f.Name, got, i+1)
		}
		// The other fields must stay untouched.
		sum.Add(o)
		for j := 0; j < typ.NumField(); j++ {
			want := int64(0)
			if j == i {
				want = 2 * int64(i+1)
			}
			if got := reflect.ValueOf(sum).Field(j).Int(); got != want {
				t.Fatalf("Stats.Add(%s) perturbs field %s: %d, want %d", f.Name, typ.Field(j).Name, got, want)
			}
		}
	}
}

// TestJoinMixedBucketsMatchUniform forces every other bucket of each
// join's hash table onto the mixed-bucket path (per-candidate key
// checks, as after a hash collision): the output must not change, and
// repeated Applies must leave the shared hash table intact.
func TestJoinMixedBucketsMatchUniform(t *testing.T) {
	sch := vecTestSchema()
	part := vecTestRows(3*batchSize + 7)
	ops := append([]OpDesc{BroadcastJoin(vecPairTable(), []string{"mid"}, []string{"pmid"})}, interpOps(vecRuleTable("ube(lrel, 0, 1) + 1"))...)
	pipe, err := NewStagePipeline(sch, ops)
	if err != nil {
		t.Fatal(err)
	}
	want, err := pipe.Apply(part)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := map[*joinBucket][]int32{}
	for i := range pipe.steps {
		hash := pipe.steps[i].hash
		keys := make([]uint64, 0, len(hash))
		for h := range hash {
			keys = append(keys, h)
		}
		slices.Sort(keys)
		for k, h := range keys {
			hash[h].uniform = k%2 == 1
			snapshot[hash[h]] = slices.Clone(hash[h].idx)
		}
	}
	for round := 0; round < 3; round++ {
		got, err := pipe.Apply(part)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.EqualFunc(got, want, slices.Equal[relation.Row]) {
			t.Fatalf("round %d: mixed-bucket join output differs (%d vs %d rows)", round, len(got), len(want))
		}
	}
	for b, idx := range snapshot {
		if !slices.Equal(b.idx, idx) {
			t.Fatalf("Apply rewrote a shared bucket: %v, was %v", b.idx, idx)
		}
	}
}
