package expr

import (
	"testing"

	"ivnt/internal/relation"
)

// flatCorpus exercises every opcode, every builtin, the short-circuit
// lowerings, and the null discipline. Each source is evaluated by both
// paths over a varied row window and compared bit-for-bit.
var flatCorpus = []string{
	// Literals, columns, unary.
	"null", "true", "false", "42", "4.5", "'sid'", "t", "n", "-t", "-n", "!true", "!v",
	// Arithmetic, comparisons, string concat, division by zero.
	"t + v", "n + n", "t - v", "n - 1", "t * v", "n * 3", "t / v", "t / 0",
	"n % 3", "n % 0", "t % 0.7", "t % 0", "sid + '!'", "1 + '@'",
	"t == v", "t != v", "n == 7", "t < v", "t <= v", "t > v", "t >= v",
	"sid < 'z'", "null < 1", "1 < null", "null == null", "null != 1",
	// Short-circuit connectives (right side must not run when skipped:
	// 1/0 is null → false, harmless, but proves coercion).
	"t > 0 && v > 0", "t > 1e9 && v > 0", "t > 0 || v > 0", "t > 1e9 || v > 0",
	"t && v", "null && true", "null || true", "t > 0 && null",
	// Ternary and iff.
	"t > v ? t : v", "n > 0 ? 'pos' : 'neg'", "iff(n > 0, t, v)",
	"iff(isnull(lag(v)), 0.0, 1.0)",
	// Coalesce.
	"coalesce(null, t)", "coalesce(t, v)", "coalesce(null, null)",
	"coalesce(1/0, n % 0, sid)",
	// Eager builtins, one per Builtin code.
	"abs(-t)", "abs(n)", "abs(0 - n)", "min(t, v, n)", "max(t, v, n)",
	"floor(t)", "ceil(t)", "round(t)", "sqrt(v)", "pow(t, 2)", "log(v)",
	"exp(1)", "int(t)", "float(n)", "str(n)",
	"contains(sid, 'po')", "startswith(sid, 'w')", "endswith(sid, 's')",
	"lower(sid)", "upper(sid)", "strlen(sid)", "isnull(t)", "isnull(null)",
	"byteat(l, 1)", "byteat(l, 99)", "paylen(l)", "paylen(t)",
	"ubits(l, 4, 8)", "sbits(l, 4, 8)", "ulbits(l, 3, 7)", "slbits(l, 3, 7)",
	"ube(l, 0, 2)", "ule(l, 0, 2)",
	"lookup(byteat(l, 0), '90=on;1=off')", "lookup(n, '7=seven')",
	"slice(l, 1, 2)", "slice(l, 3, 9)",
	// Window functions.
	"lag(v)", "lag(v, 2)", "lag(v, 0)", "lag(v, -1)", "lag(v, n)",
	"lag(v, 99)", "gap(t)", "delta(v)", "gap(t) > 0.15 && !isnull(lag(v))",
	// Nesting that stresses MaxStack and jump patching.
	"iff(ubits(l, 0, 8) == 90, ubits(l, 8, 16) * 0.1, null)",
	"min(max(t, v), max(n, 2), coalesce(lag(t), t)) + (t > v ? 1 : -1)",
	"coalesce(iff(t > v, null, sid), str(pow(2, min(n, 4))))",
}

// flatRows builds a window with nulls, short rows at the type level
// (nulls in cells), and value variety so lag/gap paths all fire.
func flatRows() []relation.Row {
	return []relation.Row{
		{relation.Float(1.0), relation.Null(), relation.Str("alpha"), relation.Bytes([]byte{0x01}), relation.Int(-3)},
		{relation.Float(1.2), relation.Float(40), relation.Str("wpos"), relation.Bytes([]byte{0x5A, 0x01, 0xFF, 0x80}), relation.Int(7)},
		{relation.Float(2.5), relation.Float(45), relation.Str("wpos"), relation.Bytes([]byte{0x5A, 0x01, 0xFF, 0x80}), relation.Int(7)},
		{relation.Null(), relation.Float(45), relation.Str(""), relation.Null(), relation.Int(0)},
		{relation.Float(2.9), relation.Float(-45), relation.Str("zeta"), relation.Bytes(nil), relation.Int(2)},
	}
}

// TestFlatMatchesTree is the package-local differential check: the
// bytecode machine must agree with the tree walker bit-for-bit on
// every corpus expression at every cursor position.
func TestFlatMatchesTree(t *testing.T) {
	rows := flatRows()
	var m Machine
	for _, src := range flatCorpus {
		p, err := Compile(src, testSchema)
		if err != nil {
			t.Fatalf("compile %q: %v", src, err)
		}
		fp := p.Flatten()
		if fp.Window != p.UsesWindow() {
			t.Errorf("%q: flat window=%v, tree=%v", src, fp.Window, p.UsesWindow())
		}
		for idx := range rows {
			want := p.Eval(&RowEnv{Rows: rows, Idx: idx})
			got := m.EvalAt(fp, rows, idx)
			if got != want { // bitwise, the differential harness contract
				t.Errorf("%q at row %d: flat=%v tree=%v\n%s", src, idx, got, want, fp.Disasm())
			}
		}
	}
}

// TestFlattenIdempotent checks the cached FlatProgram is returned on
// repeat calls, including concurrent ones.
func TestFlattenIdempotent(t *testing.T) {
	p, err := Compile("t + v", testSchema)
	if err != nil {
		t.Fatal(err)
	}
	first := p.Flatten()
	done := make(chan *FlatProgram, 8)
	for i := 0; i < 8; i++ {
		go func() { done <- p.Flatten() }()
	}
	for i := 0; i < 8; i++ {
		if fp := <-done; fp != first {
			t.Fatal("Flatten returned a different program on repeat call")
		}
	}
}

// TestFlatMaxStack verifies the emission-time stack bound is exact
// enough: evaluating with a stack of exactly MaxStack must not panic,
// and MaxStack must be positive.
func TestFlatMaxStack(t *testing.T) {
	rows := flatRows()
	for _, src := range flatCorpus {
		p, err := Compile(src, testSchema)
		if err != nil {
			t.Fatal(err)
		}
		fp := p.Flatten()
		if fp.MaxStack < 1 {
			t.Errorf("%q: MaxStack = %d", src, fp.MaxStack)
			continue
		}
		m := &Machine{stack: make([]relation.Value, fp.MaxStack)}
		for idx := range rows {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("%q: panic with stack=%d: %v\n%s", src, fp.MaxStack, r, fp.Disasm())
					}
				}()
				m.EvalAt(fp, rows, idx)
			}()
		}
	}
}

// TestRemapColumns checks column operands are rewritten and the
// original program is untouched.
func TestRemapColumns(t *testing.T) {
	p, err := Compile("v + lag(v) + gap(t)", testSchema)
	if err != nil {
		t.Fatal(err)
	}
	fp := p.Flatten()
	shift := fp.RemapColumns(func(c int) int { return c + 10 })
	for i, ins := range shift.Code {
		switch ins.Op {
		case OpPushCol, OpLag, OpLagDyn, OpGapDelta:
			if ins.A != fp.Code[i].A+10 {
				t.Fatalf("ins %d: remapped A=%d, original A=%d", i, ins.A, fp.Code[i].A)
			}
		default:
			if ins != fp.Code[i] {
				t.Fatalf("ins %d: non-column instruction changed: %v vs %v", i, ins, fp.Code[i])
			}
		}
	}
	// Remapping again from the original must still see original operands.
	again := fp.RemapColumns(func(c int) int { return c })
	for i := range again.Code {
		if again.Code[i] != fp.Code[i] {
			t.Fatalf("original program mutated at ins %d", i)
		}
	}
}

func BenchmarkFlatEvalInterpretationRule(b *testing.B) {
	p := benchProgram(b, "0.5 * ube(l, 0, 2)")
	fp := p.Flatten()
	rows := []relation.Row{benchRow()}
	var m Machine
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.EvalAt(fp, rows, 0)
	}
}

func BenchmarkFlatEvalConstraintWithWindow(b *testing.B) {
	p := benchProgram(b, "isnull(lag(v)) || v != lag(v) || gap(t) > 0.15")
	fp := p.Flatten()
	rows := make([]relation.Row, 64)
	for i := range rows {
		rows[i] = benchRow()
	}
	var m Machine
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.EvalBoolAt(fp, rows, i%len(rows))
	}
}
