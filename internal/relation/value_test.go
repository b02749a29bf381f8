package relation

import (
	"math"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestValueConstructorsAndKinds(t *testing.T) {
	cases := []struct {
		v    Value
		kind Kind
	}{
		{Null(), KindNull},
		{Bool(true), KindBool},
		{Bool(false), KindBool},
		{Int(42), KindInt},
		{Float(3.5), KindFloat},
		{Str("abc"), KindString},
		{Bytes([]byte{1, 2}), KindBytes},
	}
	for _, c := range cases {
		if c.v.K != c.kind {
			t.Errorf("value %v: kind = %v, want %v", c.v, c.v.K, c.kind)
		}
	}
}

func TestValueAsBool(t *testing.T) {
	if !Bool(true).AsBool() || Bool(false).AsBool() {
		t.Error("bool round trip failed")
	}
	if !Int(7).AsBool() || Int(0).AsBool() {
		t.Error("int truthiness failed")
	}
	if !Float(0.1).AsBool() || Float(0).AsBool() {
		t.Error("float truthiness failed")
	}
	if Null().AsBool() || Str("true").AsBool() {
		t.Error("null/string must be false")
	}
}

func TestValueAsIntConversions(t *testing.T) {
	cases := []struct {
		v    Value
		want int64
	}{
		{Int(-9), -9},
		{Float(2.9), 2},
		{Bool(true), 1},
		{Str("17"), 17},
		{Str("0x10"), 16},
		{Str("junk"), 0},
		{Null(), 0},
	}
	for _, c := range cases {
		if got := c.v.AsInt(); got != c.want {
			t.Errorf("AsInt(%v) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestValueAsFloatConversions(t *testing.T) {
	if got := Str("2.5").AsFloat(); got != 2.5 {
		t.Errorf("AsFloat string = %v", got)
	}
	if got := Int(3).AsFloat(); got != 3 {
		t.Errorf("AsFloat int = %v", got)
	}
	if !math.IsNaN(Str("xyz").AsFloat()) {
		t.Error("non-numeric string should be NaN")
	}
	if Null().AsFloat() != 0 {
		t.Error("null should be 0")
	}
}

func TestValueAsString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null(), ""},
		{Bool(true), "true"},
		{Bool(false), "false"},
		{Int(-3), "-3"},
		{Float(1.25), "1.25"},
		{Str("hi"), "hi"},
		{Bytes([]byte{0xAB, 0x01}), "ab01"},
	}
	for _, c := range cases {
		if got := c.v.AsString(); got != c.want {
			t.Errorf("AsString(%#v) = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestValueEqualCrossNumeric(t *testing.T) {
	if !Int(2).Equal(Float(2)) {
		t.Error("Int(2) should equal Float(2)")
	}
	if Int(2).Equal(Str("2")) {
		t.Error("Int(2) should not equal Str(\"2\")")
	}
	if !Bytes([]byte{1, 2}).Equal(Bytes([]byte{1, 2})) {
		t.Error("bytes equality failed")
	}
	if Bytes([]byte{1}).Equal(Bytes([]byte{1, 2})) {
		t.Error("bytes length mismatch should not be equal")
	}
	if !Null().Equal(Null()) {
		t.Error("null equals null")
	}
	if Null().Equal(Int(0)) {
		t.Error("null must not equal 0")
	}
}

func TestValueCompareOrdering(t *testing.T) {
	ordered := []Value{
		Null(), Bool(false), Bool(true), Int(-5), Float(0), Int(9),
		Str("a"), Str("b"), Bytes([]byte{0}), Bytes([]byte{0, 1}), Bytes([]byte{1}),
	}
	for i := 0; i < len(ordered); i++ {
		for j := 0; j < len(ordered); j++ {
			got := ordered[i].Compare(ordered[j])
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got != want {
				t.Errorf("Compare(%v, %v) = %d, want %d", ordered[i], ordered[j], got, want)
			}
		}
	}
}

func TestValueHashConsistentWithEqual(t *testing.T) {
	if Int(5).Hash() != Float(5).Hash() {
		t.Error("numerically equal values must hash equally")
	}
	if Str("a").Hash() == Str("b").Hash() {
		t.Error("distinct strings should (overwhelmingly) hash differently")
	}
}

func TestValueCompareAntisymmetryProperty(t *testing.T) {
	f := func(a, b int64) bool {
		va, vb := Int(a), Int(b)
		return va.Compare(vb) == -vb.Compare(va)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestValueEqualHashProperty(t *testing.T) {
	f := func(a int64) bool {
		return Int(a).Hash() == Float(float64(a)).Hash() == (float64(a) == float64(int64(float64(a))))
	}
	// The equality above only holds when the int survives the float
	// round trip; restrict to small values where it always does.
	g := func(a int32) bool {
		return Int(int64(a)).Hash() == Float(float64(a)).Hash()
	}
	_ = f
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

// TestValueLayout pins the cell at one kind word, one payload word and
// one string header: every row slab, copy and GC scan is sized by it.
func TestValueLayout(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 32 {
		t.Fatalf("sizeof(Value) = %d, want 32", got)
	}
}

// TestValueHashGolden pins Hash to the values the 64-byte layout
// produced (FNV-1a over a class tag and the canonical payload), so
// repartitioning, join buckets and shuffle owners do not move when the
// cell's representation does.
func TestValueHashGolden(t *testing.T) {
	cases := []struct {
		name string
		v    Value
		want uint64
	}{
		{"null", Null(), 0xaf63bd4c8601b7df},
		{"bool-true", Bool(true), 0x82f2307b4e88e77},
		{"bool-false", Bool(false), 0x82f2207b4e88cc4},
		{"int-2", Int(2), 0xcd96cf54dc682a5},
		{"float-2", Float(2), 0xcd96cf54dc682a5},
		{"int-neg", Int(-7), 0xc7a44f54d75aa29},
		{"int-min", Int(math.MinInt64), 0xe2029f54edc866c},
		{"float-0", Float(0), 0xcd92cf54dc615e5},
		{"float-neg0", Float(math.Copysign(0, -1)), 0xcd9acf54dc6ef65},
		{"float-nan", Float(math.NaN()), 0xf04f8cec44e9cb91},
		{"float-nan-neg-quiet", Float(math.Float64frombits(0xfff8000000000000)), 0xdce1df54e9667e0},
		{"float-nan-signaling", Float(math.Float64frombits(0x7ff0000000000bad)), 0xea6d4703a9bc7b1c},
		{"float-inf", Float(math.Inf(1)), 0xde89df54eac5618},
		{"float-neginf", Float(math.Inf(-1)), 0xde81df54eab7c98},
		{"float-pi", Float(math.Pi), 0x84e49f28cb27dd5b},
		{"bytes-nil", Bytes(nil), 0xaf63b94c8601b113},
		{"bytes-empty", Bytes([]byte{}), 0xaf63b94c8601b113},
		{"str-empty", Str(""), 0xaf63be4c8601b992},
		{"str-ab", Str("ab"), 0xe33fd518720ea131},
		{"bytes-ab", Bytes([]byte("ab")), 0xb7ea1e185981b43c},
	}
	for _, c := range cases {
		if got := c.v.Hash(); got != c.want {
			t.Errorf("%s: Hash() = %#x, want %#x", c.name, got, c.want)
		}
	}
}

// TestValuePayloadBitsExact: floats keep their exact bit pattern (NaN
// payloads, -0), bools and ints their word, and bytes alias the
// wrapped slice without a copy.
func TestValuePayloadBitsExact(t *testing.T) {
	for _, bits := range []uint64{0x7ff8000000000001, 0xfff8000000000000, 0x7ff0000000000bad, 1 << 63} {
		if got := math.Float64bits(Float(math.Float64frombits(bits)).F()); got != bits {
			t.Errorf("float bits %#x came back as %#x", bits, got)
		}
	}
	if Float(math.Copysign(0, -1)) == Float(0) {
		t.Error("-0 and +0 must be distinct cells")
	}
	if Int(math.MinInt64).I() != math.MinInt64 || Int(-1).I() != -1 {
		t.Error("int payload did not round-trip")
	}
	b := []byte{1, 2, 3}
	v := Bytes(b)
	if got := v.B(); len(got) != 3 || &got[0] != &b[0] {
		t.Error("Bytes must wrap the slice without copying")
	}
	if Bytes(nil) != Bytes([]byte{}) {
		t.Error("nil and empty bytes must be the same cell")
	}
	if Str("ab") == Bytes([]byte("ab")) || Str("ab").Equal(Bytes([]byte("ab"))) {
		t.Error("a string and bytes with equal content are distinct cells")
	}
}
