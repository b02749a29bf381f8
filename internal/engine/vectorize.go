package engine

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"ivnt/internal/expr"
	"ivnt/internal/relation"
)

// This file is the engine's execution path. Instead of walking one row
// at a time through each operator — a recursive expression
// interpretation and a fresh row allocation per operator per row — the
// pipeline is planned once into segments: maximal fused runs execute as
// a single pass over batches with a selection vector, materializing
// output rows exactly once per run out of a shared slab, and the
// remaining operators get batch-aware kernels. internal/oracle is the
// row-at-a-time reference; internal/difftest holds the two to bitwise
// equality on every seeded workload.
//
// A fused run is late-materialized. It may begin with broadcast joins
// whose keys are probe-row columns; they expand each batch into
// virtual rows — a probe row index plus one build row index per join,
// in bucket order — without copying a cell. Filter/Project/AddColumn
// steps and EvalRule steps whose rule column a leading join carries
// then run over the virtual rows, and the surviving rows are built
// once. Algorithm 1's interpretation stage (semijoin, ⋈ U_comb, u₁, π,
// u₂, π) is one such run: each K_s row is materialized exactly once.
//
// Fused filters skip runs: when consecutive selected rows carry
// bitwise-identical cells in every column the filter reads, the
// previous verdict is reused instead of re-evaluating the program.
// Dict/RLE-encoded segment scans produce exactly this shape — long runs
// of repeated status values — so on low-cardinality traces most filter
// evaluations collapse into memcmp of a few cells. Sound because fused
// filters are window-free (runs refuse window programs) and every
// expression builtin is pure: equal inputs give equal verdicts.

// batchSize is the number of rows processed per fused batch: probe
// rows for a join-free run, and the most virtual rows a join-headed
// run takes into one batch. 1024 rows keeps a batch's
// selection vector and scratch columns in cache while amortizing
// per-batch overhead.
const batchSize = 1024

// DebugMutateSelection, when non-nil, rewrites the selection vector
// after every fused filter step. It exists solely so the differential
// harness can inject a selection-vector bug and prove it would be
// caught; production code never sets it.
var DebugMutateSelection func(sel []int32) []int32

// vecSegment is one planned unit of vectorized execution: either a
// fused run or a single operator.
type vecSegment struct {
	fused *fusedRun
	step  int // index into StagePipeline.steps when fused == nil
}

// fusedStep is one executable step inside a fused run. Project steps
// compile away entirely — they only permute the output mapping — and
// leading joins are expanded before the steps run.
type fusedStep struct {
	kind OpKind
	prog *expr.FlatProgram // column-remapped into the run's physical space
	dst  int               // scratch slot written by OpAddColumn/OpEvalRule, -1 for OpFilter
	// skipCols, when non-nil, lists the input row columns this filter
	// reads — the columns whose bitwise equality across rows licenses
	// verdict reuse. nil disables run skipping for the step (the program
	// reads a scratch column or uses window state).
	skipCols []int32
	// rules, for OpEvalRule, holds the rule of every build row of
	// leading join `join`, compiled at plan time.
	join  int
	rules []*ruleProg
}

// ruleProg is one build row's compiled rule: a remapped program, nil
// for the empty rule (null result), or the compile error, returned only
// when a selected row reaches it.
type ruleProg struct {
	prog *expr.FlatProgram
	err  error
}

// fusedRun is a maximal run of fusable steps compiled against a fixed
// physical column space: indexes below inWidth are probe row columns,
// inWidth+k is scratch column k. outSrc maps each output column to its
// physical source; copyOut is false when the run only filters (joins
// without kept columns included) and output rows are the probe rows
// themselves.
type fusedRun struct {
	kinds []OpKind // constituent op kinds, in order (for ObserveOp)
	// joins are the leading broadcast joins; hashFrom[j] names the
	// first join with the same probe key columns, whose hash j reuses.
	joins    []*compiledOp
	hashFrom []int
	// gather copies kept build columns into scratch slots after the
	// joins expanded a batch; only columns a step's program reads are
	// listed (output columns read the build rows directly).
	gather   []gatherCol
	steps    []fusedStep
	inWidth  int
	nScratch int
	outSrc   []int32
	copyOut  bool
	// outRow/outScratch/outBuild split outSrc by source so the
	// materialize loop avoids a per-cell branch: output column dst
	// copies from probe row column src, scratch column src, or the kept
	// build column of a leading join.
	outRow     []srcMap
	outScratch []srcMap
	outBuild   []gatherCol
}

type srcMap struct{ dst, src int32 }

// gatherCol pairs build column col of leading join join with scratch
// slot (gather) or output column (outBuild) dst.
type gatherCol struct{ join, col, dst int }

// vecScratch is the pooled per-Apply working set: selection vector,
// virtual rows, scratch columns and the flat-program machine.
type vecScratch struct {
	sel     []int32
	probe   []int32   // virtual row → probe row index
	build   [][]int32 // per leading join: virtual row → build row index
	match   [][]int32 // per leading join: build rows matching the current probe row
	buf     [][]int32 // per leading join: backing store for match when a bucket is mixed
	odo     []int     // odometer over the match lists
	cols    [][]relation.Value
	machine expr.Machine
}

var vecPool = sync.Pool{New: func() any { return &vecScratch{} }}

// buildVecPlan slices the compiled steps into fused runs and single-op
// segments. Called once from NewStagePipeline.
func (p *StagePipeline) buildVecPlan() {
	var run *runBuilder
	flush := func() {
		if run != nil {
			p.vec = append(p.vec, vecSegment{fused: run.finish()})
			run = nil
		}
	}
	for i := range p.steps {
		st := &p.steps[i]
		if run != nil && run.add(st) {
			continue
		}
		flush()
		if run = newRunBuilder(st); run == nil {
			p.vec = append(p.vec, vecSegment{step: i})
		}
	}
	flush()
}

// runBuilder compiles a fused run step by step, remapping each step's
// program from its logical input schema into the run's physical column
// space and folding projections into the output mapping.
type runBuilder struct {
	run *fusedRun
	// cur maps the current intermediate schema's logical columns to
	// physical indexes.
	cur []int32
	// kept maps a scratch slot holding a kept build column to its
	// source; used marks the physical columns some step's program
	// reads.
	kept map[int32]gatherCol
	used map[int32]bool
}

// newRunBuilder starts a run with st, or returns nil when st cannot
// head one (window programs, EvalRule over a materialized rule column,
// the non-fusable operators).
func newRunBuilder(st *compiledOp) *runBuilder {
	b := &runBuilder{
		run:  &fusedRun{inWidth: len(st.in.Cols)},
		cur:  make([]int32, len(st.in.Cols)),
		kept: map[int32]gatherCol{},
		used: map[int32]bool{},
	}
	for i := range b.cur {
		b.cur[i] = int32(i)
	}
	if !b.add(st) {
		return nil
	}
	return b
}

// remap rewrites fp into the run's physical column space and records
// the scratch columns it reads.
func (b *runBuilder) remap(fp *expr.FlatProgram) *expr.FlatProgram {
	out := fp.RemapColumns(func(c int) int { return int(b.cur[c]) })
	for _, c := range out.Columns() {
		b.used[int32(c)] = true
	}
	return out
}

func (b *runBuilder) newSlot() int32 {
	slot := b.run.nScratch
	b.run.nScratch++
	return int32(b.run.inWidth + slot)
}

// add appends st to the run, reporting false (and leaving the run
// untouched) when st cannot fuse here.
func (b *runBuilder) add(st *compiledOp) bool {
	run := b.run
	switch st.desc.Kind {
	case OpBroadcastJoin:
		// Joins lead a run, ahead of every other op: the steps run over
		// the virtual rows the joins expand, and while no Project has
		// renumbered the schema, a logical key index below inWidth is the
		// probe row column itself. Keys must be probe row columns:
		// virtual rows only carry build row indexes, not key cells.
		if len(run.kinds) > len(run.joins) {
			return false
		}
		for _, c := range st.leftIdx {
			if c >= run.inWidth {
				return false
			}
		}
		j := len(run.joins)
		from := j
		for k, prev := range run.joins {
			if slices.Equal(prev.leftIdx, st.leftIdx) {
				from = k
				break
			}
		}
		run.joins = append(run.joins, st)
		run.hashFrom = append(run.hashFrom, from)
		for _, ci := range st.keepIdx {
			phys := b.newSlot()
			b.kept[phys] = gatherCol{join: j, col: ci, dst: int(phys) - run.inWidth}
			b.cur = append(b.cur, phys)
		}
		if len(st.keepIdx) > 0 {
			run.copyOut = true
		}
	case OpFilter:
		if st.prog.UsesWindow() {
			return false
		}
		prog := b.remap(st.prog.Flatten())
		run.steps = append(run.steps, fusedStep{kind: OpFilter, prog: prog, dst: -1,
			skipCols: skipColumns(prog, run.inWidth)})
	case OpAddColumn:
		if st.prog.UsesWindow() {
			return false
		}
		prog := b.remap(st.prog.Flatten())
		phys := b.newSlot()
		run.steps = append(run.steps, fusedStep{kind: OpAddColumn, prog: prog, dst: int(phys) - run.inWidth})
		b.cur = append(b.cur, phys)
		run.copyOut = true
	case OpEvalRule:
		src, ok := b.kept[b.cur[st.ruleIdx]]
		if !ok {
			return false
		}
		rules, ok := b.compileRules(st, run.joins[src.join].build, src.col)
		if !ok {
			return false
		}
		phys := b.newSlot()
		run.steps = append(run.steps, fusedStep{kind: OpEvalRule, dst: int(phys) - run.inWidth,
			join: src.join, rules: rules})
		b.cur = append(b.cur, phys)
		run.copyOut = true
	case OpProject:
		next := make([]int32, len(st.colIdx))
		for k, ci := range st.colIdx {
			next[k] = b.cur[ci]
		}
		b.cur = next
		run.copyOut = true
	default:
		return false
	}
	run.kinds = append(run.kinds, st.desc.Kind)
	return true
}

// compileRules compiles the rule text of every build row's column col
// once per distinct text, against the EvalRule's input schema, exactly
// as the unfused kernel would at run time. It reports false when any
// rule reads lag/gap: window history must see the EvalRule's own input
// rows, which the run never materializes.
func (b *runBuilder) compileRules(st *compiledOp, build []relation.Row, col int) ([]*ruleProg, bool) {
	bySrc := map[string]*ruleProg{}
	rules := make([]*ruleProg, len(build))
	for i, r := range build {
		src := r[col].AsString()
		rp, seen := bySrc[src]
		if !seen {
			rp = &ruleProg{}
			if src != "" {
				prog, err := expr.Compile(src, st.in)
				switch {
				case err != nil:
					rp.err = fmt.Errorf("engine: row rule %q: %w", src, err)
				case prog.UsesWindow():
					return nil, false
				default:
					rp.prog = prog.Flatten()
				}
			}
			bySrc[src] = rp
		}
		rules[i] = rp
	}
	// Remap only once the whole column is known to fuse, so a refused
	// EvalRule leaves no used marks behind.
	for _, rp := range bySrc {
		if rp.prog != nil {
			rp.prog = b.remap(rp.prog)
		}
	}
	return rules, true
}

// finish fixes the output mapping and the gather list.
func (b *runBuilder) finish() *fusedRun {
	run := b.run
	run.outSrc = b.cur
	for k, src := range b.cur {
		if g, ok := b.kept[src]; ok {
			run.outBuild = append(run.outBuild, gatherCol{join: g.join, col: g.col, dst: k})
		} else if int(src) < run.inWidth {
			run.outRow = append(run.outRow, srcMap{int32(k), src})
		} else {
			run.outScratch = append(run.outScratch, srcMap{int32(k), src - int32(run.inWidth)})
		}
	}
	for phys := int32(run.inWidth); phys < int32(run.inWidth+run.nScratch); phys++ {
		if g, ok := b.kept[phys]; ok && b.used[phys] {
			run.gather = append(run.gather, g)
		}
	}
	return run
}

// skipColumns returns the filter's referenced columns when every one is
// an input row column (physical index below inWidth) and the program is
// window-free — the conditions under which bitwise-equal referenced
// cells guarantee an equal verdict. Any scratch-column or window
// reference returns nil, disabling run skipping for the step.
func skipColumns(fp *expr.FlatProgram, inWidth int) []int32 {
	if fp.Window {
		return nil
	}
	cols := fp.Columns()
	out := make([]int32, len(cols))
	for k, c := range cols {
		if c >= inWidth {
			return nil
		}
		out[k] = int32(c)
	}
	return out
}

// cellsSameBits reports bitwise equality of the given columns across
// two rows, with short rows reading as null exactly like OpPushCol.
func cellsSameBits(a, b relation.Row, cols []int32) bool {
	for _, c := range cols {
		av, bv := relation.Null(), relation.Null()
		if int(c) < len(a) {
			av = a[c]
		}
		if int(c) < len(b) {
			bv = b[c]
		}
		if av != bv {
			return false
		}
	}
	return true
}

// execute runs the planned segments over one partition, timing each
// into engine_op_seconds when instrument is set.
func (p *StagePipeline) execute(part []relation.Row, instrument bool) ([]relation.Row, error) {
	sc := vecPool.Get().(*vecScratch)
	defer vecPool.Put(sc)
	rows := part
	for _, seg := range p.vec {
		var t0 time.Time
		if instrument {
			t0 = time.Now()
		}
		var out []relation.Row
		var err error
		if seg.fused != nil {
			out, err = runFused(seg.fused, rows, sc)
			if instrument {
				// A fused run is one pass: each constituent operator is
				// observed with the run's duration (see docs/PERFORMANCE.md).
				d := time.Since(t0)
				for _, k := range seg.fused.kinds {
					ObserveOp(k, d)
				}
			}
		} else {
			st := &p.steps[seg.step]
			out, err = st.applyVecSingle(rows, sc)
			if instrument {
				ObserveOp(st.desc.Kind, time.Since(t0))
			}
		}
		if err != nil {
			return nil, err
		}
		rows = out
	}
	return rows, nil
}

// applyVecSingle runs one non-fused operator: batch-aware kernels for
// window programs and rules, whole-partition kernels for dedup, sort,
// partial agg and the shuffle exchange.
func (st *compiledOp) applyVecSingle(rows []relation.Row, sc *vecScratch) ([]relation.Row, error) {
	switch st.desc.Kind {
	case OpFilter:
		return applyWindowFilter(st.prog.Flatten(), rows, sc), nil
	case OpAddColumn:
		return applyWindowAddCol(st.prog.Flatten(), rows, sc), nil
	case OpEvalRule:
		return st.applyEvalRuleVec(rows, sc)
	case OpDedupConsecutive:
		out := make([]relation.Row, 0, len(rows))
		for i, r := range rows {
			if i > 0 && sameOn(r, rows[i-1], st.colIdx) {
				continue
			}
			out = append(out, r)
		}
		return out, nil
	case OpSortWithin:
		// Governed: in-memory sort.SliceStable when the working set fits
		// the memory budget, external merge sort otherwise (spill.go).
		return st.applySort(rows)
	case OpPartialAgg:
		// Governed: in-memory hash aggregation when it fits, grace hash
		// aggregation through disk otherwise (spill.go).
		return st.applyAgg(rows)
	case OpShuffleExchange:
		return st.applyShuffleExchange(rows)
	}
	return nil, fmt.Errorf("engine: unknown op kind %v", st.desc.Kind)
}

// growInt32 returns s resized to n, reallocating only when too small.
func growInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n, max(n, 2*cap(s)))
	}
	return s[:n]
}

// expand fills sc.probe (and sc.build per leading join) with the
// virtual rows of the batch starting at probe row lo, and returns the
// virtual row count and the first probe row not taken. A join-free run
// takes batchSize probe rows one-to-one; a join-headed run takes probe
// rows while their virtual rows fit in batchSize (a single probe row
// with a larger fan-out makes a batch of its own). Virtual
// rows of one probe row enumerate the matching build rows of every
// join in nested-loop order — first join outermost, each in bucket
// order — which is the row order the joins would materialize.
func (run *fusedRun) expand(rows []relation.Row, lo int, sc *vecScratch) (nv, hi int) {
	if len(run.joins) == 0 {
		hi = min(lo+batchSize, len(rows))
		sc.probe = growInt32(sc.probe, hi-lo)
		for i := range sc.probe {
			sc.probe[i] = int32(lo + i)
		}
		return hi - lo, hi
	}
	nj := len(run.joins)
	for len(sc.build) < nj {
		sc.build = append(sc.build, nil)
		sc.match = append(sc.match, nil)
		sc.buf = append(sc.buf, nil)
	}
	if cap(sc.odo) < nj {
		sc.odo = make([]int, nj)
	}
	odo := sc.odo[:nj]
	probe := sc.probe[:0]
	build := sc.build[:nj]
	for j := range build {
		build[j] = build[j][:0]
	}
	var hs [4]uint64
	hashes := hs[:0]
	hi = lo
	for hi < len(rows) && len(probe) < batchSize {
		r := rows[hi]
		hashes = hashes[:0]
		matched := true
		for j, jn := range run.joins {
			var h uint64
			if from := run.hashFrom[j]; from < j {
				h = hashes[from]
			} else {
				h = r.Hash(jn.leftIdx...)
			}
			hashes = append(hashes, h)
			sc.match[j] = jn.matches(r, h, &sc.buf[j])
			if len(sc.match[j]) == 0 {
				matched = false
				break
			}
		}
		if matched {
			fan := 1
			for j := range odo {
				odo[j] = 0
				fan *= len(sc.match[j])
			}
			if len(probe) > 0 && len(probe)+fan > batchSize {
				// The row's virtual rows would overflow the batch: leave
				// it to the next one, so output slabs stay within one
				// batchSize-row allocation.
				break
			}
			for {
				probe = append(probe, int32(hi))
				for j := range build {
					build[j] = append(build[j], sc.match[j][odo[j]])
				}
				j := nj - 1
				for ; j >= 0; j-- {
					if odo[j]++; odo[j] < len(sc.match[j]) {
						break
					}
					odo[j] = 0
				}
				if j < 0 {
					break
				}
			}
		}
		hi++
	}
	sc.probe = probe
	return len(probe), hi
}

// matches returns the build rows of the join whose keys equal probe row
// r's, in bucket order. A uniform bucket (every build row shares one
// key tuple — the common case; a mixed bucket means a 64-bit hash
// collision or keys that are not equal to themselves, like NaN) is
// checked once and returned as is, read-only; otherwise candidates are
// filtered into *buf, which is reused across calls.
func (st *compiledOp) matches(r relation.Row, h uint64, buf *[]int32) []int32 {
	b := st.hash[h]
	if b == nil {
		return nil
	}
	if b.uniform {
		if !keysEqual(r, st.build[b.idx[0]], st.leftIdx, st.rightIdx) {
			return nil
		}
		return b.idx
	}
	m := (*buf)[:0]
	for _, bi := range b.idx {
		if keysEqual(r, st.build[bi], st.leftIdx, st.rightIdx) {
			m = append(m, bi)
		}
	}
	*buf = m
	return m
}

// runFused executes one fused run over the partition in batches. Per
// batch: expand the leading joins into virtual rows, gather the kept
// build columns a program reads, seed the selection vector, run each
// step over the surviving selection (filters compact it in place,
// computed columns write their scratch vector at selected positions
// only), then materialize the survivors once — a single slab
// allocation for the whole batch.
//
// A rule error is the error of the earliest EvalRule step any selected
// row reaches with a bad rule, at the first such row — what running
// the steps one after another over the whole partition returns. Once a
// step fails, later batches run only the steps before it.
func runFused(run *fusedRun, rows []relation.Row, sc *vecScratch) ([]relation.Row, error) {
	out := make([]relation.Row, 0, len(rows))
	for len(sc.cols) < run.nScratch {
		sc.cols = append(sc.cols, nil)
	}
	w := len(run.outSrc)
	limit := len(run.steps)
	var firstErr error
	batches := int64(0)
	for lo := 0; lo < len(rows); {
		if firstErr != nil && !run.ruleStepBefore(limit) {
			break
		}
		nv, hi := run.expand(rows, lo, sc)
		lo = hi
		batches++
		if nv == 0 {
			continue
		}
		probe := sc.probe
		for i := 0; i < run.nScratch; i++ {
			if cap(sc.cols[i]) < nv {
				sc.cols[i] = make([]relation.Value, max(nv, batchSize))
			}
			sc.cols[i] = sc.cols[i][:cap(sc.cols[i])]
		}
		for _, g := range run.gather {
			dst, bidx, build := sc.cols[g.dst], sc.build[g.join], run.joins[g.join].build
			for v := 0; v < nv; v++ {
				dst[v] = build[bidx[v]][g.col]
			}
		}
		sc.sel = growInt32(sc.sel, nv)
		sel := sc.sel
		for v := range sel {
			sel[v] = int32(v)
		}
		for si := 0; si < limit; si++ {
			step := &run.steps[si]
			switch step.kind {
			case OpFilter:
				kept := sel[:0]
				if step.skipCols != nil {
					// Run skipping: selected rows whose referenced cells are
					// bitwise-identical to the previously evaluated row reuse
					// its verdict. RLE-shaped data makes these runs long.
					last := int32(-1)
					verdict := false
					skipped := int64(0)
					for _, v := range sel {
						if last >= 0 && cellsSameBits(rows[probe[v]], rows[probe[last]], step.skipCols) {
							skipped++
						} else {
							verdict = sc.machine.EvalSplit(step.prog, rows[probe[v]], run.inWidth, sc.cols, int(v)).AsBool()
							last = v
						}
						if verdict {
							kept = append(kept, v)
						}
					}
					if skipped > 0 {
						runSkipRowsCtr.Add(skipped)
					}
				} else {
					for _, v := range sel {
						if sc.machine.EvalSplit(step.prog, rows[probe[v]], run.inWidth, sc.cols, int(v)).AsBool() {
							kept = append(kept, v)
						}
					}
				}
				sel = kept
				if DebugMutateSelection != nil {
					sel = DebugMutateSelection(sel)
				}
			case OpAddColumn:
				dst := sc.cols[step.dst]
				for _, v := range sel {
					dst[v] = sc.machine.EvalSplit(step.prog, rows[probe[v]], run.inWidth, sc.cols, int(v))
				}
			case OpEvalRule:
				dst, bidx := sc.cols[step.dst], sc.build[step.join]
				for _, v := range sel {
					rp := step.rules[bidx[v]]
					switch {
					case rp.err != nil:
						firstErr, limit = rp.err, si
					case rp.prog == nil:
						dst[v] = relation.Null()
					default:
						dst[v] = sc.machine.EvalSplit(rp.prog, rows[probe[v]], run.inWidth, sc.cols, int(v))
					}
					if limit == si {
						break
					}
				}
			}
		}
		if firstErr != nil {
			continue
		}
		if !run.copyOut {
			for _, v := range sel {
				out = append(out, rows[probe[v]])
			}
			continue
		}
		slab := make([]relation.Value, len(sel)*w)
		for n, v := range sel {
			nr := relation.Row(slab[n*w : (n+1)*w : (n+1)*w])
			r := rows[probe[v]]
			for _, m := range run.outRow {
				nr[m.dst] = r[m.src]
			}
			for _, m := range run.outScratch {
				nr[m.dst] = sc.cols[m.src][v]
			}
			for _, m := range run.outBuild {
				nr[m.dst] = run.joins[m.join].build[sc.build[m.join][v]][m.col]
			}
			out = append(out, nr)
		}
	}
	vectorizedBatchesCtr.Add(batches)
	if firstErr != nil {
		return nil, firstErr
	}
	for _, k := range run.kinds {
		fusedStepsCtr[k].Inc()
	}
	return out, nil
}

// ruleStepBefore reports whether an EvalRule step precedes step limit:
// only such a step can still fail earlier in pipeline order.
func (run *fusedRun) ruleStepBefore(limit int) bool {
	for _, st := range run.steps[:limit] {
		if st.kind == OpEvalRule {
			return true
		}
	}
	return false
}

// slab hands out fixed-width rows sliced from chunked backing arrays:
// one allocation per batchSize rows instead of one per row. Rows are
// capacity-clamped so appending to one can never bleed into its
// neighbor.
type slab struct {
	buf []relation.Value
	w   int
}

func (s *slab) next() relation.Row {
	if len(s.buf) < s.w {
		s.buf = make([]relation.Value, s.w*batchSize)
	}
	r := relation.Row(s.buf[:s.w:s.w])
	s.buf = s.buf[s.w:]
	return r
}

// applyWindowFilter is the batch kernel for window-using filters: flat
// evaluation over the full partition (lag must see this operator's
// input), output rows are references so no slab is needed.
func applyWindowFilter(fp *expr.FlatProgram, rows []relation.Row, sc *vecScratch) []relation.Row {
	out := make([]relation.Row, 0, len(rows))
	for i := range rows {
		if sc.machine.EvalBoolAt(fp, rows, i) {
			out = append(out, rows[i])
		}
	}
	vectorizedBatchesCtr.Inc()
	return out
}

// applyWindowAddCol is the batch kernel for window-using computed
// columns: flat evaluation over the full partition, slab-backed output
// rows.
func applyWindowAddCol(fp *expr.FlatProgram, rows []relation.Row, sc *vecScratch) []relation.Row {
	out := make([]relation.Row, 0, len(rows))
	if len(rows) == 0 {
		return out
	}
	sl := slab{w: len(rows[0]) + 1}
	for i, r := range rows {
		nr := sl.next()
		copy(nr, r)
		nr[len(r)] = sc.machine.EvalAt(fp, rows, i)
		out = append(out, nr)
	}
	vectorizedBatchesCtr.Inc()
	return out
}

// applyEvalRuleVec evaluates per-row dynamic rules through their flat
// programs with slab-backed output rows. It runs the EvalRules a fused
// run cannot take: the rule column was materialized before the stage
// or computed inside it, or some rule reads window history.
func (st *compiledOp) applyEvalRuleVec(rows []relation.Row, sc *vecScratch) ([]relation.Row, error) {
	out := make([]relation.Row, 0, len(rows))
	if len(rows) == 0 {
		return out, nil
	}
	sl := slab{w: len(st.in.Cols) + 1}
	for i, r := range rows {
		var v relation.Value
		src := r[st.ruleIdx].AsString()
		if src != "" {
			prog, err := st.rules.get(src)
			if err != nil {
				return nil, fmt.Errorf("engine: row rule %q: %w", src, err)
			}
			v = sc.machine.EvalAt(prog.Flatten(), rows, i)
		}
		nr := sl.next()
		copy(nr, r)
		nr[len(r)] = v
		out = append(out, nr)
	}
	vectorizedBatchesCtr.Inc()
	return out, nil
}
