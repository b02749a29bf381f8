package difftest

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"ivnt/internal/relation"
)

// floatTol is the relative tolerance used by canonical comparison.
// Runs over the *same* partitioning must agree bitwise (they execute
// the identical float operations in the identical order), so the
// direct oracle-vs-executor checks use exact comparison; only the
// cross-partitioning invariants tolerate the re-association error of
// partial float sums.
const floatTol = 1e-9

func fmtRow(r relation.Row) string {
	parts := make([]string, len(r))
	for i, v := range r {
		parts[i] = v.AsString()
		if v.IsNull() {
			parts[i] = "∅"
		}
	}
	return "[" + strings.Join(parts, " | ") + "]"
}

// DiffExact compares two relations partition by partition, row by row,
// cell by cell. It returns "" when identical, otherwise a readable
// description of the first few differences.
func DiffExact(want, got *relation.Relation) string {
	if !want.Schema.Equal(got.Schema) {
		return fmt.Sprintf("schema mismatch:\n  want %s\n  got  %s", want.Schema, got.Schema)
	}
	if len(want.Partitions) != len(got.Partitions) {
		return fmt.Sprintf("partition count mismatch: want %d, got %d", len(want.Partitions), len(got.Partitions))
	}
	var b strings.Builder
	diffs := 0
	for pi := range want.Partitions {
		wp, gp := want.Partitions[pi], got.Partitions[pi]
		if len(wp) != len(gp) {
			fmt.Fprintf(&b, "partition %d: want %d rows, got %d\n", pi, len(wp), len(gp))
			diffs++
			continue
		}
		for ri := range wp {
			if diffs >= 5 {
				b.WriteString("  ... further diffs elided\n")
				return b.String()
			}
			// Cell == is bitwise: a -0 vs +0 or NaN-payload drift is
			// caught, not forgiven.
			if !slices.Equal(wp[ri], gp[ri]) {
				fmt.Fprintf(&b, "partition %d row %d:\n  want %s\n  got  %s\n", pi, ri, fmtRow(wp[ri]), fmtRow(gp[ri]))
				diffs++
			}
		}
	}
	return b.String()
}

// bothNumeric reports whether both values are Int or Float — the one
// case where canonical comparison goes through float64 (a derived
// column can legitimately hold Int on one side and Float on the other:
// iff(p, intExpr, floatExpr) re-associated across partitions).
func bothNumeric(a, b relation.Value) bool {
	num := func(v relation.Value) bool { return v.K == relation.KindInt || v.K == relation.KindFloat }
	return num(a) && num(b)
}

func closeEnough(a, b float64) bool {
	if a == b {
		return true
	}
	d := math.Abs(a - b)
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return d <= floatTol*scale
}

// cellCanon is the tolerance-aware three-way comparison used to put
// rows into canonical order on both sides before pairing them up.
func cellCanon(a, b relation.Value) int {
	if bothNumeric(a, b) {
		fa, fb := a.AsFloat(), b.AsFloat()
		if closeEnough(fa, fb) {
			return 0
		}
		if fa < fb {
			return -1
		}
		return 1
	}
	return a.Compare(b)
}

func canonLess(a, b relation.Row) bool {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if c := cellCanon(a[i], b[i]); c != 0 {
			return c < 0
		}
	}
	return len(a) < len(b)
}

func cellsClose(a, b relation.Value) bool {
	if bothNumeric(a, b) {
		return closeEnough(a.AsFloat(), b.AsFloat())
	}
	return a.Equal(b)
}

// DiffCanonical compares two relations as multisets: both sides are
// flattened, sorted by a tolerance-aware row order, and paired up with
// numeric cells compared under relative tolerance. This is the
// comparison used by the partition-count and row-order invariances,
// where partial sums are re-associated and exact bit equality is not a
// meaningful expectation.
func DiffCanonical(want, got *relation.Relation) string {
	if !want.Schema.Equal(got.Schema) {
		return fmt.Sprintf("schema mismatch:\n  want %s\n  got  %s", want.Schema, got.Schema)
	}
	wr, gr := want.Rows(), got.Rows()
	if len(wr) != len(gr) {
		return fmt.Sprintf("row count mismatch: want %d, got %d", len(wr), len(gr))
	}
	wr, gr = append([]relation.Row(nil), wr...), append([]relation.Row(nil), gr...)
	sort.SliceStable(wr, func(i, j int) bool { return canonLess(wr[i], wr[j]) })
	sort.SliceStable(gr, func(i, j int) bool { return canonLess(gr[i], gr[j]) })
	var b strings.Builder
	diffs := 0
	for i := range wr {
		if diffs >= 5 {
			b.WriteString("  ... further diffs elided\n")
			break
		}
		same := len(wr[i]) == len(gr[i])
		if same {
			for ci := range wr[i] {
				if !cellsClose(wr[i][ci], gr[i][ci]) {
					same = false
					break
				}
			}
		}
		if !same {
			fmt.Fprintf(&b, "canonical row %d:\n  want %s\n  got  %s\n", i, fmtRow(wr[i]), fmtRow(gr[i]))
			diffs++
		}
	}
	return b.String()
}

// Report renders a mismatch with everything needed to replay it: the
// failing invariant, the seed, the input shape, and the operator tree.
func Report(w *Workload, invariant, detail string) string {
	return fmt.Sprintf(
		"differential mismatch [%s]\n"+
			"  seed: %d   (replay: go test ./internal/difftest/ -run Differential -difftest.seed=%d -v)\n"+
			"  input: %d rows, schema %s\n"+
			"  plan (window=%v dedup=%v):\n%s"+
			"  detail:\n%s",
		invariant, w.Seed, w.Seed, len(w.Rows), w.Schema, w.UsesWindow, w.HasDedup,
		FormatOps(w.Ops), indent(detail))
}

func indent(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i := range lines {
		lines[i] = "    " + lines[i]
	}
	return strings.Join(lines, "\n") + "\n"
}
