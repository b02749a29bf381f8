package query

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"ivnt/internal/engine"
	"ivnt/internal/relation"
)

func testSchema() relation.Schema {
	return relation.NewSchema(
		relation.Column{Name: "ts", Kind: relation.KindInt},
		relation.Column{Name: "val", Kind: relation.KindFloat},
		relation.Column{Name: "sid", Kind: relation.KindString},
	)
}

func schemaFn(m map[string]relation.Schema) SchemaFn {
	return func(rel string) (relation.Schema, error) {
		s, ok := m[rel]
		if !ok {
			return relation.Schema{}, errUnknown(rel)
		}
		return s, nil
	}
}

type errUnknown string

func (e errUnknown) Error() string { return "unknown relation " + string(e) }

func mustCompile(t *testing.T, sql string, schemas map[string]relation.Schema) *Plan {
	t.Helper()
	q, err := Parse(sql)
	if err != nil {
		t.Fatalf("Parse(%q): %v", sql, err)
	}
	p, err := Compile(q, schemaFn(schemas))
	if err != nil {
		t.Fatalf("Compile(%q): %v", sql, err)
	}
	return p
}

// A parsed plan must be the very op tree a caller would hand-build —
// same OpDesc data, same stage fingerprint — so both share pipeline
// cache entries and results are bitwise-equal by construction.
func TestCompileMatchesHandBuiltOps(t *testing.T) {
	schemas := map[string]relation.Schema{"trace": testSchema()}
	cases := []struct {
		sql  string
		hand []engine.OpDesc
	}{
		{
			"SELECT * FROM trace",
			nil,
		},
		{
			"SELECT ts, val FROM trace WHERE ts >= 100 && val > 0.5",
			[]engine.OpDesc{
				engine.Filter("ts >= 100 && val > 0.5"),
				engine.Project("ts", "val"),
			},
		},
		{
			"SELECT sid, val * 2.0 + 1.0 AS scaled FROM trace",
			[]engine.OpDesc{
				engine.AddColumn("scaled", relation.KindFloat, "val * 2.0 + 1.0"),
				engine.Project("sid", "scaled"),
			},
		},
		{
			"select ts from trace where sid == 'a'",
			[]engine.OpDesc{
				engine.Filter("sid == 'a'"),
				engine.Project("ts"),
			},
		},
	}
	for _, c := range cases {
		p := mustCompile(t, c.sql, schemas)
		if !reflect.DeepEqual(p.ScanOps, c.hand) {
			t.Errorf("%q:\n got %#v\nwant %#v", c.sql, p.ScanOps, c.hand)
		}
		got := engine.StageFingerprint(testSchema(), p.ScanOps)
		want := engine.StageFingerprint(testSchema(), c.hand)
		if got != want {
			t.Errorf("%q: fingerprint %x != hand-built %x", c.sql, got, want)
		}
	}
}

func TestCompileAggregate(t *testing.T) {
	schemas := map[string]relation.Schema{"trace": testSchema()}
	p := mustCompile(t, "SELECT sid, count(*) AS n, mean(val) AS m FROM trace WHERE ts > 10 GROUP BY sid", schemas)
	wantOps := []engine.OpDesc{
		engine.Filter("ts > 10"),
		engine.Project("val", "sid"), // needed columns, schema order
	}
	if !reflect.DeepEqual(p.ScanOps, wantOps) {
		t.Fatalf("ScanOps = %#v, want %#v", p.ScanOps, wantOps)
	}
	wantAggs := []engine.AggSpec{
		{Fn: engine.AggCount, As: "n"},
		{Fn: engine.AggMean, Col: "val", As: "m"},
	}
	if !reflect.DeepEqual(p.Aggs, wantAggs) {
		t.Fatalf("Aggs = %#v, want %#v", p.Aggs, wantAggs)
	}
	if !reflect.DeepEqual(p.GroupBy, []string{"sid"}) || p.FinalProject != nil {
		t.Fatalf("GroupBy=%v FinalProject=%v", p.GroupBy, p.FinalProject)
	}

	// Select order differing from keys-then-aggs forces a final projection.
	p = mustCompile(t, "SELECT count(*) AS n, sid FROM trace GROUP BY sid", schemas)
	if !reflect.DeepEqual(p.FinalProject, []string{"n", "sid"}) {
		t.Fatalf("FinalProject = %v", p.FinalProject)
	}
}

func TestParseClauses(t *testing.T) {
	q, err := Parse("SELECT a FROM t WHERE x > 1 ORDER BY a ASC, b LIMIT 10")
	if err != nil {
		t.Fatal(err)
	}
	if q.Where != "x > 1" || !reflect.DeepEqual(q.OrderBy, []string{"a", "b"}) || q.Limit != 10 {
		t.Fatalf("parsed %+v", q)
	}
	q, err = Parse("SELECT a FROM l JOIN r ON a == b && c == d WHERE x > 1")
	if err != nil {
		t.Fatal(err)
	}
	if q.Join == nil || q.Join.Rel != "r" || !reflect.DeepEqual(q.Join.On, [][2]string{{"a", "b"}, {"c", "d"}}) {
		t.Fatalf("join parsed %+v", q.Join)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ sql, want string }{
		{"SELECT FROM t", "expected"},
		{"SELECT a", "expected FROM"},
		{"SELECT a FROM t ORDER BY a DESC", "DESC is not supported"},
		{"SELECT a FROM t LIMIT -1", "expected row count"},
		{"SELECT a FROM t LIMIT x", "expected row count"},
		{"SELECT a FROM t trailing", "unexpected"},
		{"SELECT a FROM select", "reserved word"},
		{"SELECT a, FROM t", "expected"},
	}
	for _, c := range cases {
		if _, err := Parse(c.sql); err == nil {
			t.Errorf("Parse(%q): expected error", c.sql)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("Parse(%q) = %q, want substring %q", c.sql, err, c.want)
		}
	}
}

func TestCompileErrors(t *testing.T) {
	schemas := map[string]relation.Schema{"trace": testSchema()}
	cases := []struct{ sql, want string }{
		{"SELECT nope FROM trace", "unknown column"},
		{"SELECT ts FROM nope", "unknown relation"},
		{"SELECT ts + 1 FROM trace", "needs an AS alias"},
		{"SELECT count(*) AS n FROM trace", "needs a GROUP BY"},
		{"SELECT sum(val) AS s FROM trace", "needs a GROUP BY"},
		{"SELECT ts FROM trace GROUP BY sid", "neither a group key nor an aggregate"},
		{"SELECT sid, first(val) AS f FROM trace GROUP BY sid", "does not distribute"},
		{"SELECT sid, count(*) FROM trace GROUP BY sid", "needs an AS alias"},
		{"SELECT ts, ts FROM trace", "duplicate output column"},
		{"SELECT ts FROM trace ORDER BY val", "not an output column"},
		{"SELECT *, ts FROM trace", "'*' must be the only select item"},
	}
	for _, c := range cases {
		q, err := Parse(c.sql)
		if err == nil {
			_, err = Compile(q, schemaFn(schemas))
		}
		if err == nil {
			t.Errorf("%q: expected error", c.sql)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%q error = %q, want substring %q", c.sql, err, c.want)
		}
	}
}

type memSources map[string]*relation.Relation

func (m memSources) Source(rel string) (engine.ScanSource, error) {
	r, ok := m[rel]
	if !ok {
		return nil, errUnknown(rel)
	}
	return &engine.MemSource{Rel: r}, nil
}

func testRel() *relation.Relation {
	rows := []relation.Row{
		{relation.Int(10), relation.Float(1.5), relation.Str("a")},
		{relation.Int(20), relation.Float(2.5), relation.Str("b")},
		{relation.Int(30), relation.Float(0.5), relation.Str("a")},
		{relation.Int(40), relation.Float(4.0), relation.Str("b")},
		{relation.Int(50), relation.Float(math.NaN()), relation.Str("c")},
	}
	return relation.FromRows(testSchema(), rows).Repartition(2)
}

func TestRunEndToEnd(t *testing.T) {
	srcs := memSources{"trace": testRel()}
	exec := engine.NewLocal(2)
	run := func(sql string) *relation.Relation {
		t.Helper()
		q, err := Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		p, err := Compile(q, func(rel string) (relation.Schema, error) {
			src, err := srcs.Source(rel)
			if err != nil {
				return relation.Schema{}, err
			}
			return src.ScanSchema(), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(context.Background(), exec, srcs, p, engine.PlanConfig{})
		if err != nil {
			t.Fatal(err)
		}
		return res.Rel
	}

	out := run("SELECT ts FROM trace WHERE val > 1.0 ORDER BY ts")
	got := out.Rows()
	if len(got) != 3 || got[0][0].I() != 10 || got[1][0].I() != 20 || got[2][0].I() != 40 {
		t.Fatalf("filtered rows = %v", got)
	}

	out = run("SELECT sid, count(*) AS n FROM trace GROUP BY sid ORDER BY sid")
	got = out.Rows()
	if len(got) != 3 || got[0][0].S != "a" || got[0][1].I() != 2 || got[2][0].S != "c" || got[2][1].I() != 1 {
		t.Fatalf("grouped rows = %v", got)
	}

	out = run("SELECT ts FROM trace ORDER BY ts LIMIT 2")
	if got = out.Rows(); len(got) != 2 || got[1][0].I() != 20 {
		t.Fatalf("limited rows = %v", got)
	}
}

func TestRunJoin(t *testing.T) {
	names := relation.NewSchema(
		relation.Column{Name: "key", Kind: relation.KindString},
		relation.Column{Name: "label", Kind: relation.KindString},
	)
	nrows := []relation.Row{
		{relation.Str("a"), relation.Str("alpha")},
		{relation.Str("b"), relation.Str("beta")},
	}
	srcs := memSources{
		"trace": testRel(),
		"names": relation.FromRows(names, nrows),
	}
	exec := engine.NewLocal(2)
	q, err := Parse("SELECT sid, label FROM trace JOIN names ON sid == key WHERE ts <= 20 ORDER BY sid")
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(q, func(rel string) (relation.Schema, error) {
		src, err := srcs.Source(rel)
		if err != nil {
			return relation.Schema{}, err
		}
		return src.ScanSchema(), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// The WHERE touches only the left side, so it folds into the left scan.
	if len(p.ScanOps) == 0 || p.ScanOps[0].Kind != engine.OpFilter {
		t.Fatalf("left-only WHERE not folded into left scan: %#v", p.ScanOps)
	}
	res, err := Run(context.Background(), exec, srcs, p, engine.PlanConfig{})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Rel.Rows()
	if len(got) != 2 || got[0][1].S != "alpha" || got[1][1].S != "beta" {
		t.Fatalf("join rows = %v", got)
	}
}
