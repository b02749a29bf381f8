package colcodec

import (
	"bytes"
	"encoding/gob"
	"encoding/hex"
	"math"
	"strings"
	"testing"

	"ivnt/internal/relation"
)

func kitchenSinkSchema() relation.Schema {
	return relation.NewSchema(
		relation.Column{Name: "b", Kind: relation.KindBool},
		relation.Column{Name: "i", Kind: relation.KindInt},
		relation.Column{Name: "f", Kind: relation.KindFloat},
		relation.Column{Name: "s", Kind: relation.KindString},
		relation.Column{Name: "y", Kind: relation.KindBytes},
		relation.Column{Name: "mixed", Kind: relation.KindString},
	)
}

// kitchenSinkRows exercises every Kind, nulls in every column, empty
// and huge byte payloads, non-ASCII strings, and NaN/±Inf floats — and
// a genuinely mixed-kind column (EvalRule output is dynamically typed).
func kitchenSinkRows() []relation.Row {
	huge := make([]byte, 70000)
	for i := range huge {
		huge[i] = byte(i * 7)
	}
	return []relation.Row{
		{relation.Bool(true), relation.Int(0), relation.Float(0), relation.Str(""), relation.Bytes(nil), relation.Int(1)},
		{relation.Bool(false), relation.Int(-1), relation.Float(math.NaN()), relation.Str("héllo wörld ✓✓"), relation.Bytes([]byte{}), relation.Str("zwei")},
		{relation.Null(), relation.Null(), relation.Null(), relation.Null(), relation.Null(), relation.Null()},
		{relation.Bool(true), relation.Int(math.MaxInt64), relation.Float(math.Inf(1)), relation.Str("日本語テキスト"), relation.Bytes(huge), relation.Float(2.5)},
		{relation.Bool(false), relation.Int(math.MinInt64), relation.Float(math.Inf(-1)), relation.Str(strings.Repeat("x", 9000)), relation.Bytes([]byte{0, 255, 0}), relation.Bool(true)},
		{relation.Null(), relation.Int(42), relation.Float(-0.0), relation.Str("\x00nul byte"), relation.Null(), relation.Bytes([]byte("raw"))},
	}
}

func assertRowsEqual(t *testing.T, got, want []relation.Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("rows = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("row %d: %d cells, want %d", i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] { // bitwise: NaN round-trips, -0.0 != +0.0
				t.Fatalf("row %d cell %d: %#v, want %#v", i, j, got[i][j], want[i][j])
			}
		}
	}
}

func TestRoundTripKitchenSink(t *testing.T) {
	s := kitchenSinkSchema()
	rows := kitchenSinkRows()
	for _, compress := range []bool{false, true} {
		data, err := Encode(s, rows, Options{Compress: compress})
		if err != nil {
			t.Fatalf("compress=%v: %v", compress, err)
		}
		if IsCompressed(data) != compress {
			t.Fatalf("compress=%v: IsCompressed = %v", compress, IsCompressed(data))
		}
		got, err := Decode(s, data)
		if err != nil {
			t.Fatalf("compress=%v: %v", compress, err)
		}
		assertRowsEqual(t, got, rows)
	}
}

func TestRoundTripEmpty(t *testing.T) {
	s := kitchenSinkSchema()
	data, err := Encode(s, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(s, data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("rows = %d", len(got))
	}
}

// TestGoldenLayout pins the exact uncompressed wire bytes of a small
// fixture, so accidental layout changes (which would desynchronize
// driver and executor) fail loudly instead of corrupting data.
func TestGoldenLayout(t *testing.T) {
	s := relation.NewSchema(
		relation.Column{Name: "i", Kind: relation.KindInt},
		relation.Column{Name: "s", Kind: relation.KindString},
	)
	rows := []relation.Row{
		{relation.Int(1), relation.Str("ab")},
		{relation.Null(), relation.Str("c")},
		{relation.Int(-3), relation.Null()},
	}
	data, err := Encode(s, rows, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// "C1", flags 0, nrows 3, ncols 2;
	// col 0: tag int|nulls (0x12), bitmap 0b010, varints 1, -3 (zigzag 2, 5);
	// col 1: tag string|nulls (0x14), bitmap 0b100, lens 2, 1, arena "abc".
	const want = "43310003021202020514040201616263"
	if got := hex.EncodeToString(data); got != want {
		t.Fatalf("golden mismatch:\n got  %s\n want %s", got, want)
	}
	back, err := Decode(s, data)
	if err != nil {
		t.Fatal(err)
	}
	assertRowsEqual(t, back, rows)
}

func TestEncodeRejectsRaggedRows(t *testing.T) {
	s := kitchenSinkSchema()
	if _, err := Encode(s, []relation.Row{{relation.Int(1)}}, Options{}); err == nil {
		t.Fatal("ragged row must be rejected")
	}
}

func TestDecodeRejectsCorruptInput(t *testing.T) {
	s := kitchenSinkSchema()
	good, err := Encode(s, kitchenSinkRows(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":        {},
		"bad magic":    {0x00, 0x01, 0x02, 0x03},
		"truncated":    good[:len(good)/2],
		"trailing":     append(append([]byte{}, good...), 0xAA),
		"wrong schema": good, // decoded against a narrower schema below
	}
	for name, data := range cases {
		sch := s
		if name == "wrong schema" {
			sch = relation.NewSchema(relation.Column{Name: "only", Kind: relation.KindInt})
		}
		if _, err := Decode(sch, data); err == nil {
			t.Fatalf("%s: expected decode error", name)
		}
	}
}

func TestDecodeRejectsHugeRowCount(t *testing.T) {
	// A forged header claiming 2^40 rows must fail fast, not allocate.
	data := []byte{magic0, magic1, 0, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20, 0x01}
	if _, err := Decode(relation.NewSchema(relation.Column{Name: "x", Kind: relation.KindInt}), data); err == nil {
		t.Fatal("expected row-count limit error")
	}
}

// TestWireSizeBeatsGob quantifies the codec-only share of the v3 wire
// savings: columnar encoding of a realistic signal-stream partition must
// be meaningfully smaller than the gob []relation.Row encoding it
// replaces. (The protocol-level ≥2× bytes-per-task reduction additionally
// comes from stage-once shipping — measured by the wire benchmark.)
func TestWireSizeBeatsGob(t *testing.T) {
	s := relation.NewSchema(
		relation.Column{Name: "t", Kind: relation.KindFloat},
		relation.Column{Name: "mid", Kind: relation.KindInt},
		relation.Column{Name: "v", Kind: relation.KindFloat},
	)
	rows := make([]relation.Row, 5000)
	for i := range rows {
		rows[i] = relation.Row{
			relation.Float(float64(i) * 0.1),
			relation.Int(int64(3 + i%2)),
			relation.Float(float64(i%97) * 1.5),
		}
	}
	col, err := Encode(s, rows, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var gobBuf bytes.Buffer
	if err := gob.NewEncoder(&gobBuf).Encode(rows); err != nil {
		t.Fatal(err)
	}
	if ratio := float64(gobBuf.Len()) / float64(len(col)); ratio < 1.4 {
		t.Fatalf("columnar %dB vs gob %dB: ratio %.2f, want >= 1.4", len(col), gobBuf.Len(), ratio)
	}
}

func BenchmarkEncode(b *testing.B) {
	s := kitchenSinkSchema()
	rows := benchRows(10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(s, rows, Options{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(10000*b.N)/b.Elapsed().Seconds(), "rows/s")
}

func BenchmarkDecode(b *testing.B) {
	s := kitchenSinkSchema()
	rows := benchRows(10000)
	data, err := Encode(s, rows, Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(s, data); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(10000*b.N)/b.Elapsed().Seconds(), "rows/s")
}

func benchRows(n int) []relation.Row {
	rows := make([]relation.Row, n)
	for i := range rows {
		rows[i] = relation.Row{
			relation.Bool(i%3 == 0),
			relation.Int(int64(i) * 13),
			relation.Float(float64(i) / 7),
			relation.Str("signal-name"),
			relation.Bytes([]byte{byte(i), 1, 2, 3, 4, 5, 6, 7}),
			relation.Int(int64(i % 5)),
		}
	}
	return rows
}
