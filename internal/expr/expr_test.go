package expr

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"ivnt/internal/relation"
)

var testSchema = relation.NewSchema(
	relation.Column{Name: "t", Kind: relation.KindFloat},
	relation.Column{Name: "v", Kind: relation.KindFloat},
	relation.Column{Name: "sid", Kind: relation.KindString},
	relation.Column{Name: "l", Kind: relation.KindBytes},
	relation.Column{Name: "n", Kind: relation.KindInt},
)

func evalOn(t *testing.T, src string, row relation.Row) relation.Value {
	t.Helper()
	p, err := Compile(src, testSchema)
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	return p.Eval(SingleRowEnv{Row: row})
}

func row(t, v float64, sid string, l []byte, n int64) relation.Row {
	return relation.Row{relation.Float(t), relation.Float(v), relation.Str(sid), relation.Bytes(l), relation.Int(n)}
}

func TestArithmetic(t *testing.T) {
	r := row(2, 45, "wpos", []byte{0x5A, 0x01}, 7)
	cases := []struct {
		src  string
		want float64
	}{
		{"1 + 2", 3},
		{"2 * 3 + 4", 10},
		{"2 + 3 * 4", 14},
		{"(2 + 3) * 4", 20},
		{"10 / 4", 2.5},
		{"7 % 3", 1},
		{"-v", -45},
		{"0.5 * v", 22.5},
		{"v - t", 43},
		{"2e2 + 1", 201},
		{"0x10 + 1", 17},
		{"abs(-3)", 3},
		{"min(4, 2, 9)", 2},
		{"max(4, 2, 9)", 9},
		{"floor(2.7)", 2},
		{"ceil(2.2)", 3},
		{"round(2.5)", 3},
		{"sqrt(16)", 4},
		{"pow(2, 10)", 1024},
	}
	for _, c := range cases {
		got := evalOn(t, c.src, r)
		if got.AsFloat() != c.want {
			t.Errorf("%q = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestIntegerArithmeticStaysInt(t *testing.T) {
	r := row(0, 0, "", nil, 7)
	got := evalOn(t, "n * 2 + 1", r)
	if got.K != relation.KindInt || got.I() != 15 {
		t.Fatalf("int arithmetic: %#v", got)
	}
	got = evalOn(t, "n / 2", r)
	if got.K != relation.KindFloat || got.F() != 3.5 {
		t.Fatalf("division must be float: %#v", got)
	}
}

func TestComparisonsAndLogic(t *testing.T) {
	r := row(2, 45, "wpos", nil, 7)
	cases := []struct {
		src  string
		want bool
	}{
		{"v > 40", true},
		{"v >= 45", true},
		{"v < 45", false},
		{"v <= 44", false},
		{"v == 45", true},
		{"v != 45", false},
		{"sid == 'wpos'", true},
		{"sid != \"wvel\"", true},
		{"v > 40 && t < 3", true},
		{"v > 50 || t < 3", true},
		{"!(v > 50)", true},
		{"true && false", false},
		{"v > 40 ? true : false", true},
		{"iff(v > 100, true, false)", false},
		{"contains(sid, 'po')", true},
		{"startswith(sid, 'w')", true},
		{"endswith(sid, 's')", true},
		{"isnull(null)", true},
		{"isnull(v)", false},
	}
	for _, c := range cases {
		got := evalOn(t, c.src, r)
		if got.AsBool() != c.want {
			t.Errorf("%q = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestRuleLHSStripping(t *testing.T) {
	// Paper Table 1 notation: "v = 0.5 * l" where l is the payload int.
	r := row(0, 0, "", nil, 100)
	got := evalOn(t, "v2 = 0.5 * n", r)
	if got.AsFloat() != 50 {
		t.Fatalf("rule with lhs: %v", got)
	}
	// "==" must not be treated as assignment.
	got = evalOn(t, "n == 100", r)
	if !got.AsBool() {
		t.Fatal("equality broken by lhs stripping")
	}
}

func TestPayloadAccessors(t *testing.T) {
	// payload: 0x5A 0x01 0xFF 0x80
	r := row(0, 0, "", []byte{0x5A, 0x01, 0xFF, 0x80}, 0)
	cases := []struct {
		src  string
		want int64
	}{
		{"byteat(l, 0)", 0x5A},
		{"byteat(l, 3)", 0x80},
		{"paylen(l)", 4},
		{"ube(l, 0, 2)", 0x5A01},
		{"ule(l, 0, 2)", 0x015A},
		{"ube(l, 2, 1)", 0xFF},
		{"ubits(l, 0, 8)", 0x5A},
		{"ubits(l, 4, 8)", 0xA0},
		{"ubits(l, 0, 4)", 0x5},
		{"ubits(l, 16, 8)", 0xFF},
		{"sbits(l, 16, 8)", -1},
		{"sbits(l, 24, 8)", -128},
		{"ubits(l, 24, 8)", 0x80},
	}
	for _, c := range cases {
		got := evalOn(t, c.src, r)
		if got.AsInt() != c.want {
			t.Errorf("%q = %v, want %d", c.src, got, c.want)
		}
	}
}

func TestPayloadOutOfRangeIsNull(t *testing.T) {
	r := row(0, 0, "", []byte{1, 2}, 0)
	for _, src := range []string{
		"byteat(l, 2)", "byteat(l, -1)", "ube(l, 1, 2)", "ubits(l, 9, 8)",
		"ubits(l, 0, 65)", "ube(l, 0, 9)",
	} {
		if got := evalOn(t, src, r); !got.IsNull() {
			t.Errorf("%q = %v, want null", src, got)
		}
	}
}

func TestNullPropagation(t *testing.T) {
	r := relation.Row{relation.Null(), relation.Null(), relation.Null(), relation.Null(), relation.Null()}
	if got := evalOn(t, "v + 1", r); !got.IsNull() {
		t.Errorf("null + 1 = %v", got)
	}
	if got := evalOn(t, "v > 0", r); got.AsBool() {
		t.Errorf("null > 0 must be false")
	}
	if got := evalOn(t, "coalesce(v, 5)", r); got.AsFloat() != 5 {
		t.Errorf("coalesce = %v", got)
	}
	if got := evalOn(t, "1 / 0", r); !got.IsNull() {
		t.Errorf("division by zero must be null, got %v", got)
	}
	if got := evalOn(t, "n % 0", r); !got.IsNull() {
		t.Errorf("mod by zero must be null, got %v", got)
	}
}

func TestWindowFunctions(t *testing.T) {
	rows := []relation.Row{
		row(2.0, 45, "wpos", nil, 0),
		row(2.5, 60, "wpos", nil, 0),
		row(2.9, 70, "wpos", nil, 0),
	}
	p, err := Compile("gap(t)", testSchema)
	if err != nil {
		t.Fatal(err)
	}
	if !p.UsesWindow() {
		t.Fatal("gap must report window usage")
	}
	env := &RowEnv{Rows: rows}
	env.Idx = 0
	if got := p.Eval(env); !got.IsNull() {
		t.Fatalf("gap at head = %v, want null", got)
	}
	env.Idx = 1
	if got := p.Eval(env); math.Abs(got.AsFloat()-0.5) > 1e-12 {
		t.Fatalf("gap = %v, want 0.5", got)
	}
	lagP, err := Compile("lag(v, 2)", testSchema)
	if err != nil {
		t.Fatal(err)
	}
	env.Idx = 2
	if got := lagP.Eval(env); got.AsFloat() != 45 {
		t.Fatalf("lag(v,2) = %v, want 45", got)
	}
	env.Idx = 1
	if got := lagP.Eval(env); !got.IsNull() {
		t.Fatalf("lag beyond head = %v, want null", got)
	}
}

func TestCycleTimeViolationRule(t *testing.T) {
	// The paper's canonical constraint: mark rows whose temporal gap to
	// the previous row exceeds the expected cycle time.
	rows := []relation.Row{
		row(0.0, 1, "s", nil, 0),
		row(0.1, 2, "s", nil, 0),
		row(0.5, 3, "s", nil, 0), // violation: gap 0.4 > 0.15
		row(0.6, 4, "s", nil, 0),
	}
	p, err := Compile("gap(t) > 0.15", testSchema)
	if err != nil {
		t.Fatal(err)
	}
	env := &RowEnv{Rows: rows}
	want := []bool{false, false, true, false}
	for i, w := range want {
		env.Idx = i
		if got := p.EvalBool(env); got != w {
			t.Errorf("row %d: violation = %v, want %v", i, got, w)
		}
	}
}

func TestCompileErrors(t *testing.T) {
	bad := []string{
		"v +",
		"(v",
		"unknowncol + 1",
		"nosuchfn(1)",
		"lag(1, 2)",     // first arg must be column
		"byteat(l)",     // arity
		"min(1)",        // arity
		"v ? 1",         // incomplete conditional
		"'unterminated", // bad string
		"v @ 2",         // invalid char
		"1 2",           // trailing token
	}
	for _, src := range bad {
		if _, err := Compile(src, testSchema); err == nil {
			t.Errorf("Compile(%q) should fail", src)
		}
	}
}

func TestStringConcatAndConversions(t *testing.T) {
	r := row(0, 3, "ab", nil, 0)
	if got := evalOn(t, "sid + 'c'", r); got.AsString() != "abc" {
		t.Errorf("concat = %q", got)
	}
	if got := evalOn(t, "str(n) + upper(sid)", r); got.AsString() != "0AB" {
		t.Errorf("mixed = %q", got)
	}
	if got := evalOn(t, "int(v)", r); got.K != relation.KindInt || got.I() != 3 {
		t.Errorf("int() = %#v", got)
	}
	if got := evalOn(t, "strlen(sid)", r); got.AsInt() != 2 {
		t.Errorf("strlen = %v", got)
	}
	if got := evalOn(t, "lower('ABC')", r); got.AsString() != "abc" {
		t.Errorf("lower = %v", got)
	}
}

func TestIdentsAndColumns(t *testing.T) {
	n := MustParse("v > 0 && gap(t) > 0.1 && sid == 'x'")
	ids := Idents(n)
	want := []string{"v", "t", "sid"}
	if strings.Join(ids, ",") != strings.Join(want, ",") {
		t.Fatalf("Idents = %v, want %v", ids, want)
	}
	if !UsesWindow(n) {
		t.Fatal("UsesWindow false")
	}
	if UsesWindow(MustParse("v > 0")) {
		t.Fatal("UsesWindow true without window fn")
	}
}

func TestParseRoundTripProperty(t *testing.T) {
	// Property: rendering an AST and reparsing yields an AST with the
	// same rendering (parse∘print is idempotent).
	exprs := []string{
		"((v > 40) && (t < 3))",
		"(0.5 * ube(l, 0, 2))",
		"iff((v > 100), (v - 100), v)",
		"((gap(t) > 0.15) || (v == 0))",
	}
	for _, src := range exprs {
		n1 := MustParse(src)
		n2 := MustParse(n1.String())
		if n1.String() != n2.String() {
			t.Errorf("round trip: %q -> %q -> %q", src, n1.String(), n2.String())
		}
	}
}

func TestExtractBitsProperty(t *testing.T) {
	// Property: for any byte payload, ubits over a whole aligned byte
	// equals that byte.
	f := func(data []byte, idx uint8) bool {
		if len(data) == 0 {
			return true
		}
		i := int(idx) % len(data)
		v := extractBits(relation.Bytes(data), i*8, 8, false)
		return v.AsInt() == int64(data[i])
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUbeUleAgreeOnSingleByteProperty(t *testing.T) {
	f := func(data []byte, idx uint8) bool {
		if len(data) == 0 {
			return true
		}
		i := int(idx) % len(data)
		a := extractBytes(relation.Bytes(data), i, 1, false)
		b := extractBytes(relation.Bytes(data), i, 1, true)
		return a.AsInt() == b.AsInt()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLookupFunction(t *testing.T) {
	r := row(0, 1, "", nil, 2)
	if got := evalOn(t, "lookup(n, '0=off;1=parklight on;2=headlight on')", r); got.AsString() != "headlight on" {
		t.Errorf("lookup = %q", got)
	}
	if got := evalOn(t, "lookup(7, '0=off;1=on')", r); got.AsString() != "raw(7)" {
		t.Errorf("missing entry = %q", got)
	}
	if got := evalOn(t, "lookup(null, '0=off')", r); !got.IsNull() {
		t.Errorf("lookup(null) = %v", got)
	}
}

func TestSliceFunction(t *testing.T) {
	r := row(0, 0, "", []byte{1, 2, 3, 4}, 0)
	got := evalOn(t, "slice(l, 1, 2)", r)
	if got.K != relation.KindBytes || len(got.B()) != 2 || got.B()[0] != 2 || got.B()[1] != 3 {
		t.Errorf("slice = %#v", got)
	}
	// Chained u1/u2: extract relevant bytes, then interpret them.
	if got := evalOn(t, "ube(slice(l, 1, 2), 0, 2)", r); got.AsInt() != 0x0203 {
		t.Errorf("chained slice/ube = %v", got)
	}
	for _, src := range []string{"slice(l, 3, 2)", "slice(l, -1, 2)", "slice(n, 0, 1)"} {
		if got := evalOn(t, src, r); !got.IsNull() {
			t.Errorf("%q = %v, want null", src, got)
		}
	}
}

func TestLittleEndianBitAccessors(t *testing.T) {
	// payload 0x12 0x34: DBC-numbered bits — byte0 LSB is bit 0.
	r := row(0, 0, "", []byte{0x12, 0x34}, 0)
	cases := []struct {
		src  string
		want int64
	}{
		{"ulbits(l, 0, 8)", 0x12},
		{"ulbits(l, 8, 8)", 0x34},
		{"ulbits(l, 0, 16)", 0x3412}, // little endian across bytes
		{"ulbits(l, 4, 8)", 0x41},    // high nibble of 0x12, low nibble of 0x34
		{"ulbits(l, 1, 3)", 0x1},     // bits 1..3 of 0x12 (0b0010010 -> 001)
		{"slbits(l, 4, 8)", 0x41},
		{"slbits(l, 8, 8)", 0x34},
	}
	for _, c := range cases {
		if got := evalOn(t, c.src, r); got.AsInt() != c.want {
			t.Errorf("%q = %v, want %#x", c.src, got, c.want)
		}
	}
	// Sign extension: 0xFF as signed 8-bit is -1.
	r2 := row(0, 0, "", []byte{0xFF}, 0)
	if got := evalOn(t, "slbits(l, 0, 8)", r2); got.AsInt() != -1 {
		t.Errorf("slbits sign extension = %v", got)
	}
	// Bounds.
	for _, src := range []string{"ulbits(l, 9, 8)", "ulbits(l, -1, 4)", "ulbits(l, 0, 65)"} {
		if got := evalOn(t, src, r2); !got.IsNull() {
			t.Errorf("%q = %v, want null", src, got)
		}
	}
}
