package expr

import (
	"testing"

	"ivnt/internal/relation"
)

// FuzzParseAndEval hardens the rule parser and evaluator: arbitrary
// rule text must parse-or-error without panicking, and whatever parses
// must evaluate without panicking on an arbitrary row — identically on
// the recursive tree walker and the flat bytecode machine.
func FuzzParseAndEval(f *testing.F) {
	seeds := []string{
		"0.5 * ube(lrel, 0, 2)",
		"v = l + 2",
		"iff(ubits(l, 0, 1) == 1, slice(l, 1, 2), null)",
		"gap(t) > 0.15 && !isnull(lag(v))",
		"lookup(byteat(l, 0), '0=off;1=on')",
		"((((((1))))))",
		"'unterminated",
		"a @@ b",
		"-9999999999999999999999",
		"x ? y : z ? w : q",
	}
	for _, s := range seeds {
		f.Add(s, []byte{0x5A, 0x01})
	}
	schema := relation.NewSchema(
		relation.Column{Name: "t", Kind: relation.KindFloat},
		relation.Column{Name: "v", Kind: relation.KindFloat},
		relation.Column{Name: "l", Kind: relation.KindBytes},
		relation.Column{Name: "lrel", Kind: relation.KindBytes},
	)
	f.Fuzz(func(t *testing.T, src string, payload []byte) {
		p, err := Compile(src, schema)
		if err != nil {
			return
		}
		row := relation.Row{
			relation.Float(1.5), relation.Float(42),
			relation.Bytes(payload), relation.Bytes(payload),
		}
		_ = p.Eval(SingleRowEnv{Row: row})
		// Window path too, cross-checked against the flat machine.
		rows := []relation.Row{row, row}
		fp := p.Flatten()
		var m Machine
		for idx := range rows {
			want := p.Eval(&RowEnv{Rows: rows, Idx: idx})
			got := m.EvalAt(fp, rows, idx)
			if got != want {
				t.Fatalf("flat/tree divergence on %q at row %d: flat=%v tree=%v", src, idx, got, want)
			}
		}
	})
}
