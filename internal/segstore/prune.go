// Zone-map pruning: deciding, from a segment's footer alone, that no
// row of the segment can satisfy a pushed-down filter — so the segment
// is never decoded. The pruning contract (docs/STORAGE.md) is strictly
// conservative: prune only when unsatisfiability is *provable* under
// the exact comparison semantics of internal/expr, and keep the
// segment on any doubt. The difftest scan invariant holds pruned scans
// bitwise-equal to full scans, so any unsound rule here is caught by a
// seeded counterexample.
//
// What makes a conjunct provably unsatisfiable is subtler than
// "literal outside [min, max]" because expr compares dynamically typed
// cells:
//
//   - Ordered comparisons (<, <=, >, >=) with a null operand are false,
//     and == against a non-null literal is false for null cells — so a
//     conjunct over an all-null column is unsatisfiable outright.
//   - expr.compareForOrder compares two values as floats only when BOTH
//     are numeric, where strings that parse as numbers count as
//     numeric; otherwise it compares their string renderings. Float
//     bounds may therefore only be trusted when EVERY non-null cell is
//     numeric (ZoneMap.NumOrd == non-null count); one "abc" cell would
//     compare lexicographically and escape the float range.
//   - NaN cells order as EQUAL to everything (compareForOrder returns 0
//     when neither side is less), so <= and >= are satisfiable whenever
//     the column holds a NaN, while < and > never match NaN.
//   - == uses relation.Value.Equal: numeric kinds (int/float only — NOT
//     numeric strings) compare as floats, strings compare exactly, and
//     cross-class is never equal. So a numeric literal can only equal
//     int/float-kind cells inside the float bounds, and a string
//     literal can only equal string-kind cells inside the lexicographic
//     bounds — both prunable even in mixed-kind columns.
//   - != is never pruned: it is TRUE for a null cell against a non-null
//     literal, so even a zone proving "no cell equals L" says nothing.
package segstore

import (
	"fmt"
	"math"

	"ivnt/internal/expr"
	"ivnt/internal/relation"
)

// conjunct is one prunable atom of a filter: column op literal, with op
// one of < <= > >= ==.
type conjunct struct {
	col string
	op  string
	lit relation.Value
}

// pruneConjuncts parses the pushed filters and extracts every conjunct
// of prunable shape. Filters split on top-level && only; atoms that
// aren't `ident op literal` (either side) are dropped — they simply
// contribute no pruning power.
func pruneConjuncts(filters []string) ([]conjunct, error) {
	var out []conjunct
	for _, src := range filters {
		n, err := expr.Parse(src)
		if err != nil {
			return nil, fmt.Errorf("segstore: pushdown filter %q: %w", src, err)
		}
		collectConjuncts(n, &out)
	}
	return out, nil
}

func collectConjuncts(n expr.Node, out *[]conjunct) {
	b, ok := n.(*expr.Binary)
	if !ok {
		return
	}
	if b.Op == "&&" {
		collectConjuncts(b.L, out)
		collectConjuncts(b.R, out)
		return
	}
	switch b.Op {
	case "<", "<=", ">", ">=", "==":
	default:
		return
	}
	if id, lit, ok := identAndLit(b.L, b.R); ok {
		*out = append(*out, conjunct{col: id, op: b.Op, lit: lit})
	} else if id, lit, ok := identAndLit(b.R, b.L); ok {
		// literal op column: flip the comparison around the column.
		*out = append(*out, conjunct{col: id, op: flipOp(b.Op), lit: lit})
	}
}

// identAndLit matches (Ident, literal) where the literal side is a Lit
// or a negated numeric Lit (the parser emits -5 as Unary{-,Lit 5}).
// Null literals are rejected — every comparison against null is false
// or null-driven, and expr handles those without our help.
func identAndLit(l, r expr.Node) (string, relation.Value, bool) {
	id, ok := l.(*expr.Ident)
	if !ok {
		return "", relation.Value{}, false
	}
	v, ok := litValue(r)
	if !ok || v.K == relation.KindNull {
		return "", relation.Value{}, false
	}
	return id.Name, v, true
}

func litValue(n expr.Node) (relation.Value, bool) {
	switch x := n.(type) {
	case *expr.Lit:
		return x.Value(), true
	case *expr.Unary:
		if x.Op != "-" {
			return relation.Value{}, false
		}
		v, ok := x.X.(*expr.Lit)
		if !ok {
			return relation.Value{}, false
		}
		switch lv := v.Value(); lv.K {
		case relation.KindInt:
			return relation.Int(-lv.I()), true
		case relation.KindFloat:
			return relation.Float(-lv.F()), true
		}
	}
	return relation.Value{}, false
}

func flipOp(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	}
	return op // == is symmetric
}

// segmentPruned reports whether the footer's zone maps prove some
// conjunct unsatisfiable over the whole segment — one dead conjunct
// kills the filter it came from for every row, which empties the stage
// pipeline at that Filter regardless of what the other ops do.
func segmentPruned(cs []conjunct, foot *footer) bool {
	for _, c := range cs {
		cm := foot.col(c.col)
		if cm == nil {
			continue // unknown column: no claim
		}
		if !satisfiable(c, cm.zone, foot.rows) {
			return true
		}
	}
	return false
}

// satisfiable reports whether some cell of a column with zone map z
// could make `cell (op) lit` true. Any "true" here must be read as
// "cannot rule it out".
func satisfiable(c conjunct, z ZoneMap, nrows int) bool {
	nonNull := nrows - z.Nulls
	if nonNull <= 0 {
		return false // null op non-null-literal is always false
	}
	if c.op == "==" {
		switch c.lit.K {
		case relation.KindInt, relation.KindFloat:
			f := c.lit.AsFloat()
			if math.IsNaN(f) {
				return false // NaN equals nothing
			}
			// Equal's float path covers int/float kinds only; FMin/FMax
			// is a superset range (it also spans numeric strings), so
			// "outside the range" still proves no int/float cell matches.
			return z.NumKind > 0 && z.FHas && z.FMin <= f && f <= z.FMax
		case relation.KindString:
			return z.SHas && z.SMin <= c.lit.S && c.lit.S <= z.SMax
		default:
			return true // bool/bytes: no bounds tracked
		}
	}
	// Ordered comparison. Decide which comparison regime every cell of
	// the column falls into; bail out (true) when the zone can't pin it.
	switch {
	case c.lit.IsNumeric():
		if z.NumOrd != nonNull {
			return true // some cell would compare lexicographically
		}
		f := c.lit.AsFloat()
		if math.IsNaN(f) {
			return true
		}
		switch c.op {
		case "<":
			return z.FHas && z.FMin < f
		case "<=":
			return z.NaNs > 0 || (z.FHas && z.FMin <= f)
		case ">":
			return z.FHas && z.FMax > f
		case ">=":
			return z.NaNs > 0 || (z.FHas && z.FMax >= f)
		}
	case c.lit.K == relation.KindString:
		// Non-numeric string literal: compareForOrder never takes the
		// float path, so every comparison is lexicographic — trustable
		// only when every cell is a string (bounds cover them all).
		if z.Strs != nonNull || !z.SHas {
			return true
		}
		switch c.op {
		case "<":
			return z.SMin < c.lit.S
		case "<=":
			return z.SMin <= c.lit.S
		case ">":
			return z.SMax > c.lit.S
		case ">=":
			return z.SMax >= c.lit.S
		}
	}
	return true
}
