package colcodec

import (
	"compress/flate"
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"ivnt/internal/relation"
)

// craftEncoded builds a flagEncoded payload from a header claim and a
// hand-assembled body.
func craftEncoded(nrows, ncols uint64, body []byte) []byte {
	out := []byte{magic0, magic1, flagEncoded}
	out = binary.AppendUvarint(out, nrows)
	out = binary.AppendUvarint(out, ncols)
	return append(out, body...)
}

// maliciousEncoded returns crafted flagEncoded payloads (against the
// one-int-column schema) that the hardened decoder must reject, keyed
// by shape. Shared by the rejection test, the FuzzDecode seeds, and the
// checked-in corpus.
func maliciousEncoded() map[string][]byte {
	mk := func(f func(b []byte) []byte) []byte { return f(nil) }
	return map[string][]byte{
		// A dictionary index pointing past the dictionary: 2 entries,
		// last cell asks for entry 7.
		"dict-index-out-of-range": craftEncoded(8, 1, mk(func(b []byte) []byte {
			b = append(b, encDict, byte(relation.KindInt))
			b = binary.AppendUvarint(b, 2)
			b = binary.AppendVarint(b, 5)
			b = binary.AppendVarint(b, 6)
			for _, id := range []uint64{0, 1, 0, 1, 0, 1, 0, 7} {
				b = binary.AppendUvarint(b, id)
			}
			return b
		})),
		// A dictionary claiming more entries than the column has cells.
		"dict-oversized": craftEncoded(8, 1, mk(func(b []byte) []byte {
			b = append(b, encDict, byte(relation.KindInt))
			b = binary.AppendUvarint(b, 20)
			for i := 0; i < 20; i++ {
				b = binary.AppendVarint(b, int64(i))
			}
			for i := 0; i < 8; i++ {
				b = binary.AppendUvarint(b, 0)
			}
			return b
		})),
		// Run lengths totalling 12 for an 8-cell column.
		"rle-run-overflow": craftEncoded(8, 1, mk(func(b []byte) []byte {
			b = append(b, encRLE, byte(relation.KindInt))
			b = binary.AppendUvarint(b, 2)
			b = binary.AppendUvarint(b, 7)
			b = binary.AppendVarint(b, 1)
			b = binary.AppendUvarint(b, 5)
			b = binary.AppendVarint(b, 2)
			return b
		})),
		// Runs covering only 3 of 8 cells.
		"rle-run-undercount": craftEncoded(8, 1, mk(func(b []byte) []byte {
			b = append(b, encRLE, byte(relation.KindInt))
			b = binary.AppendUvarint(b, 1)
			b = binary.AppendUvarint(b, 3)
			b = binary.AppendVarint(b, 1)
			return b
		})),
		// A zero-length run (the classic infinite-progress trap).
		"rle-zero-run": craftEncoded(8, 1, mk(func(b []byte) []byte {
			b = append(b, encRLE, byte(relation.KindInt))
			b = binary.AppendUvarint(b, 2)
			b = binary.AppendUvarint(b, 0)
			b = binary.AppendVarint(b, 1)
			b = binary.AppendUvarint(b, 8)
			b = binary.AppendVarint(b, 2)
			return b
		})),
		// RLE over a kind that must stay raw.
		"rle-bool-kind": craftEncoded(8, 1, mk(func(b []byte) []byte {
			b = append(b, encRLE, byte(relation.KindBool))
			b = binary.AppendUvarint(b, 1)
			b = binary.AppendUvarint(b, 8)
			b = append(b, 1)
			return b
		})),
		// An undefined encoding byte.
		"bad-encoding-byte": craftEncoded(8, 1, []byte{9, byte(relation.KindInt)}),
		// An encoded header claiming rows past the encoded cap — a
		// constant-column RLE body could otherwise "justify" any count.
		"encoded-huge-claim": craftEncoded(maxEncodedRows+1, 1, mk(func(b []byte) []byte {
			b = append(b, encRLE, byte(relation.KindInt))
			b = binary.AppendUvarint(b, 1)
			b = binary.AppendUvarint(b, maxEncodedRows+1)
			b = binary.AppendVarint(b, 0)
			return b
		})),
	}
}

func TestMaliciousEncodedRejected(t *testing.T) {
	s := relation.NewSchema(relation.Column{Name: "a", Kind: relation.KindInt})
	wantErr := map[string]string{
		"dict-index-out-of-range": "out of range",
		"dict-oversized":          "exceeds 8 non-null cells",
		"rle-run-overflow":        "overflows",
		"rle-run-undercount":      "cover 3 of 8",
		"rle-zero-run":            "zero-length run",
		"rle-bool-kind":           "not dict/rle-encodable",
		"bad-encoding-byte":       "bad column encoding",
		"encoded-huge-claim":      "exceeds limit",
	}
	for name, data := range maliciousEncoded() {
		_, err := Decode(s, data)
		if err == nil {
			t.Fatalf("%s: decoded", name)
		}
		if !strings.Contains(err.Error(), wantErr[name]) {
			t.Fatalf("%s: wrong rejection: %v", name, err)
		}
	}
}

// TestDecodeRejectsUnknownFlags: flag bits the decoder does not
// understand mean a format it cannot faithfully parse.
func TestDecodeRejectsUnknownFlags(t *testing.T) {
	s := kitchenSinkSchema()
	data, err := Encode(s, kitchenSinkRows(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	data[2] |= 0x40
	if _, err := Decode(s, data); err == nil || !strings.Contains(err.Error(), "unknown flags") {
		t.Fatalf("unknown flag bit: err = %v", err)
	}
}

// TestEncodedRoundTrip: the selection path must be a bitwise identity
// over the kitchen sink (mixed kinds, nulls, NaNs, huge cells) and over
// encoding-friendly shapes, with and without DEFLATE on top.
func TestEncodedRoundTrip(t *testing.T) {
	type fixture struct {
		name string
		s    relation.Schema
		rows []relation.Row
	}
	lowCard := func() ([]relation.Row, relation.Schema) {
		s := relation.NewSchema(
			relation.Column{Name: "gear", Kind: relation.KindInt},
			relation.Column{Name: "flag", Kind: relation.KindString},
			relation.Column{Name: "temp", Kind: relation.KindFloat},
		)
		var rows []relation.Row
		for i := 0; i < 700; i++ {
			r := relation.Row{
				relation.Int(int64(i / 100)),
				relation.Str([]string{"ok", "warn"}[i%2]),
				relation.Float(float64((i / 50) % 4)),
			}
			if i%97 == 0 {
				r[2] = relation.Null()
			}
			rows = append(rows, r)
		}
		return rows, s
	}
	lcRows, lcSchema := lowCard()
	fixtures := []fixture{
		{"kitchen-sink", kitchenSinkSchema(), kitchenSinkRows()},
		{"low-cardinality", lcSchema, lcRows},
	}
	for _, fx := range fixtures {
		for _, compress := range []bool{false, true} {
			data, err := Encode(fx.s, fx.rows, Options{Compress: compress, Encodings: true})
			if err != nil {
				t.Fatalf("%s compress=%v: %v", fx.name, compress, err)
			}
			if data[2]&flagEncoded == 0 {
				t.Fatalf("%s: flagEncoded not set", fx.name)
			}
			got, err := Decode(fx.s, data)
			if err != nil {
				t.Fatalf("%s compress=%v: %v", fx.name, compress, err)
			}
			assertRowsEqual(t, got, fx.rows)
		}
	}
}

// TestEncodingSelection pins which representation wins for canonical
// column shapes, via the per-kind counters and payload sizes.
func TestEncodingSelection(t *testing.T) {
	snap := func() map[string]int64 {
		return map[string]int64{
			"raw":  mEncodings.With("raw").Value(),
			"dict": mEncodings.With("dict").Value(),
			"rle":  mEncodings.With("rle").Value(),
		}
	}
	cases := []struct {
		name string
		want string
		cell func(i int) relation.Value
	}{
		{"constant-int", "rle", func(i int) relation.Value { return relation.Int(3) }},
		{"piecewise-float", "rle", func(i int) relation.Value { return relation.Float(float64(i / 64)) }},
		{"alternating-string", "dict", func(i int) relation.Value { return relation.Str([]string{"drive", "park"}[i%2]) }},
		{"distinct-int", "raw", func(i int) relation.Value { return relation.Int(int64(i) * 977) }},
	}
	s := relation.NewSchema(relation.Column{Name: "c", Kind: relation.KindInt})
	for _, tc := range cases {
		rows := make([]relation.Row, 512)
		for i := range rows {
			rows[i] = relation.Row{tc.cell(i)}
		}
		before := snap()
		data, err := Encode(s, rows, Options{Encodings: true})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		after := snap()
		for _, kind := range []string{"raw", "dict", "rle"} {
			wantDelta := int64(0)
			if kind == tc.want {
				wantDelta = 1
			}
			if d := after[kind] - before[kind]; d != wantDelta {
				t.Fatalf("%s: %s columns = %d, want %d", tc.name, kind, d, wantDelta)
			}
		}
		raw, err := Encode(s, rows, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if tc.want != "raw" && len(data) >= len(raw) {
			t.Fatalf("%s: %s payload %dB is not smaller than raw %dB", tc.name, tc.want, len(data), len(raw))
		}
		got, err := Decode(s, data)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		assertRowsEqual(t, got, rows)
	}
}

// TestDebugMutateRuns: swapping two run lengths (sum preserved) yields
// a structurally valid payload that decodes to the WRONG rows — the
// corruption difftest's injected-bug shape must be expressible.
func TestDebugMutateRuns(t *testing.T) {
	defer func() { DebugMutateRuns = nil }()
	DebugMutateRuns = func(lens []int) {
		if len(lens) >= 2 {
			lens[0], lens[1] = lens[1], lens[0]
		}
	}
	s := relation.NewSchema(relation.Column{Name: "c", Kind: relation.KindInt})
	rows := make([]relation.Row, 150)
	for i := range rows {
		v := int64(1)
		if i >= 100 {
			v = 2
		}
		rows[i] = relation.Row{relation.Int(v)}
	}
	data, err := Encode(s, rows, Options{Encodings: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(s, data)
	if err != nil {
		t.Fatalf("mutated runs must stay structurally valid: %v", err)
	}
	// Runs [100×1, 50×2] become [50×1, 100×2]: rows 50..99 flip to 2.
	if got[49][0].I() != 1 || got[50][0].I() != 2 || got[99][0].I() != 2 {
		t.Fatalf("run swap did not take: got[49]=%v got[50]=%v got[99]=%v", got[49][0], got[50][0], got[99][0])
	}
}

// TestCompressLevels: every flate level round-trips; an out-of-range
// level surfaces as an encode error, not silence.
func TestCompressLevels(t *testing.T) {
	s := kitchenSinkSchema()
	rows := kitchenSinkRows()
	for _, lvl := range []int{0, flate.BestSpeed, flate.DefaultCompression, flate.BestCompression, flate.HuffmanOnly} {
		data, err := Encode(s, rows, Options{Compress: true, Level: lvl})
		if err != nil {
			t.Fatalf("level %d: %v", lvl, err)
		}
		if !IsCompressed(data) {
			t.Fatalf("level %d: not flagged compressed", lvl)
		}
		got, err := Decode(s, data)
		if err != nil {
			t.Fatalf("level %d: %v", lvl, err)
		}
		assertRowsEqual(t, got, rows)
	}
	if _, err := Encode(s, rows, Options{Compress: true, Level: 42}); err == nil {
		t.Fatal("level 42 accepted")
	}
}

// TestSpecialFloatsSurviveEveryEncoding: NaN payloads, -0 and ±Inf
// must round-trip bitwise through the raw, dict and RLE column
// encodings alike — cells compare with ==, which is the bit-pattern
// identity, so a canonicalizing codec (NaN folded, -0 read as +0)
// fails here.
func TestSpecialFloatsSurviveEveryEncoding(t *testing.T) {
	specials := []float64{
		math.Float64frombits(0x7ff8000000000001), // Go's NaN
		math.Float64frombits(0xfff8000000000bad), // negative NaN with payload
		math.Copysign(0, -1),
		0,
		math.Inf(1),
		math.Inf(-1),
	}
	cases := []struct {
		name string
		want string
		cell func(i int) relation.Value
	}{
		{"distinct", "raw", func(i int) relation.Value {
			if i < len(specials) {
				return relation.Float(specials[i])
			}
			return relation.Float(float64(i) * 977.5)
		}},
		{"cycling", "dict", func(i int) relation.Value { return relation.Float(specials[i%len(specials)]) }},
		{"runs", "rle", func(i int) relation.Value { return relation.Float(specials[(i/64)%len(specials)]) }},
	}
	s := relation.NewSchema(relation.Column{Name: "f", Kind: relation.KindFloat})
	for _, tc := range cases {
		rows := make([]relation.Row, 512)
		for i := range rows {
			rows[i] = relation.Row{tc.cell(i)}
		}
		before := mEncodings.With(tc.want).Value()
		data, err := Encode(s, rows, Options{Encodings: true})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if d := mEncodings.With(tc.want).Value() - before; d != 1 {
			t.Fatalf("%s: column not %s-encoded", tc.name, tc.want)
		}
		got, err := Decode(s, data)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for i := range rows {
			if got[i][0] != rows[i][0] {
				t.Fatalf("%s row %d: bits %#x came back as %#x", tc.name, i,
					math.Float64bits(rows[i][0].F()), math.Float64bits(got[i][0].F()))
			}
		}
	}
}
