package expr

import (
	"fmt"
	"sort"
	"strings"

	"ivnt/internal/relation"
)

// This file flattens a compiled Program's AST into a postorder
// instruction slice evaluated by a small stack machine. The point is
// batch execution cost: the tree walker pays a recursive call and an
// Env interface dispatch per node per row, while the flat machine runs
// a single loop over a []Ins with a preallocated value stack — no
// per-row allocation, no virtual dispatch, and a Machine is reusable
// across every row of a batch. Semantics are shared with the tree
// walker through semantics.go, and the differential harness checks the
// two paths bit-for-bit.

// OpCode is a flat-program instruction opcode.
type OpCode uint8

const (
	// OpPushLit pushes Lits[A].
	OpPushLit OpCode = iota
	// OpPushCol pushes column A of the cursor row (null when the row
	// is short, mirroring RowEnv.Col).
	OpPushCol
	// OpNeg replaces the top of stack with its arithmetic negation.
	OpNeg
	// OpNot replaces the top of stack with !AsBool.
	OpNot
	// OpBoolCast replaces the top of stack with Bool(AsBool) — the
	// result coercion of && and ||.
	OpBoolCast
	// OpBinary pops b then a and pushes EvalBinary(BinOp(A), a, b).
	OpBinary
	// OpJump continues execution at pc A.
	OpJump
	// OpJumpIfFalse pops the top of stack and jumps to pc A when it is
	// falsy.
	OpJumpIfFalse
	// OpJumpIfTrue pops the top of stack and jumps to pc A when it is
	// truthy.
	OpJumpIfTrue
	// OpJumpIfNotNull jumps to pc A keeping the top of stack when it
	// is non-null, else pops it and falls through (coalesce).
	OpJumpIfNotNull
	// OpCall pops B arguments and pushes CallBuiltin(Builtin(A), args).
	OpCall
	// OpLag pushes column A of the row B positions before the cursor,
	// null at the sequence head (lag with a constant offset).
	OpLag
	// OpLagDyn pops the offset, then behaves like OpLag on column A.
	OpLagDyn
	// OpGapDelta pushes the float difference between column A at the
	// cursor and one row earlier, null at the head or on null cells.
	OpGapDelta
)

var opNames = [...]string{
	OpPushLit: "pushlit", OpPushCol: "pushcol", OpNeg: "neg", OpNot: "not",
	OpBoolCast: "boolcast", OpBinary: "binary", OpJump: "jump",
	OpJumpIfFalse: "jumpfalse", OpJumpIfTrue: "jumptrue",
	OpJumpIfNotNull: "jumpnotnull", OpCall: "call", OpLag: "lag",
	OpLagDyn: "lagdyn", OpGapDelta: "gapdelta",
}

func (op OpCode) String() string {
	if int(op) < len(opNames) {
		return opNames[op]
	}
	return fmt.Sprintf("op(%d)", int(op))
}

// Ins is one flat instruction. A and B are opcode-specific operands:
// literal index, column index, jump target, builtin code, arg count.
type Ins struct {
	Op   OpCode
	A, B int32
}

// FlatProgram is a Program compiled to postorder bytecode. Code never
// leaves more than MaxStack values on the machine stack, so a Machine
// can preallocate exactly once per program shape.
type FlatProgram struct {
	Source   string
	Code     []Ins
	Lits     []relation.Value
	MaxStack int
	Window   bool
}

// Flatten compiles the program to bytecode, once; subsequent calls
// return the cached FlatProgram. Safe for concurrent use.
func (p *Program) Flatten() *FlatProgram {
	p.flatOnce.Do(func() {
		f := &flattener{prog: p}
		f.emit(p.root)
		p.flat = &FlatProgram{
			Source:   p.Source,
			Code:     f.code,
			Lits:     f.lits,
			MaxStack: f.max,
			Window:   p.window,
		}
	})
	return p.flat
}

// RemapColumns returns a copy of the program with every column operand
// c rewritten to m(c). The engine uses this to point fused pipeline
// steps at scratch vectors produced by earlier steps instead of at
// materialized rows.
func (fp *FlatProgram) RemapColumns(m func(int) int) *FlatProgram {
	out := *fp
	out.Code = make([]Ins, len(fp.Code))
	copy(out.Code, fp.Code)
	for i := range out.Code {
		switch out.Code[i].Op {
		case OpPushCol, OpLag, OpLagDyn, OpGapDelta:
			out.Code[i].A = int32(m(int(out.Code[i].A)))
		}
	}
	return &out
}

// Columns returns the distinct column operands the program reads, in
// ascending order. The engine uses it to decide whether two rows are
// indistinguishable to a filter (run skipping over RLE-shaped data).
func (fp *FlatProgram) Columns() []int {
	seen := map[int]bool{}
	for _, ins := range fp.Code {
		switch ins.Op {
		case OpPushCol, OpLag, OpLagDyn, OpGapDelta:
			seen[int(ins.A)] = true
		}
	}
	cols := make([]int, 0, len(seen))
	for c := range seen {
		cols = append(cols, c)
	}
	sort.Ints(cols)
	return cols
}

// Disasm renders the bytecode for debugging and tests.
func (fp *FlatProgram) Disasm() string {
	var b strings.Builder
	for pc, ins := range fp.Code {
		fmt.Fprintf(&b, "%3d %-12s %d %d\n", pc, ins.Op, ins.A, ins.B)
	}
	return b.String()
}

// flattener emits postorder bytecode, tracking stack depth as it goes
// so MaxStack is exact.
type flattener struct {
	prog     *Program
	code     []Ins
	lits     []relation.Value
	cur, max int
}

func (f *flattener) op(op OpCode, a, b int32) int {
	f.code = append(f.code, Ins{Op: op, A: a, B: b})
	return len(f.code) - 1
}

func (f *flattener) push(n int) {
	f.cur += n
	if f.cur > f.max {
		f.max = f.cur
	}
}

func (f *flattener) pop(n int) { f.cur -= n }

// patch points the jump at pc to the current end of code.
func (f *flattener) patch(pc int) { f.code[pc].A = int32(len(f.code)) }

func (f *flattener) lit(v relation.Value) int32 {
	f.lits = append(f.lits, v)
	return int32(len(f.lits) - 1)
}

// emit appends code that evaluates n, leaving exactly one value on the
// stack.
func (f *flattener) emit(n Node) {
	switch x := n.(type) {
	case *Lit:
		v := x.Val
		var rv relation.Value
		switch {
		case v.isNull:
			rv = relation.Null()
		case v.isBool:
			rv = relation.Bool(v.b)
		case v.isInt:
			rv = relation.Int(v.i)
		case v.isFloat:
			rv = relation.Float(v.f)
		default:
			rv = relation.Str(v.s)
		}
		f.op(OpPushLit, f.lit(rv), 0)
		f.push(1)
	case *Ident:
		f.op(OpPushCol, int32(f.prog.cols[x.Name]), 0)
		f.push(1)
	case *Unary:
		switch x.Op {
		case "-":
			f.emit(x.X)
			f.op(OpNeg, 0, 0)
		case "!":
			f.emit(x.X)
			f.op(OpNot, 0, 0)
		default:
			// Unknown unary evaluates to null; expressions are
			// side-effect free, so the operand need not run.
			f.op(OpPushLit, f.lit(relation.Null()), 0)
			f.push(1)
		}
	case *Binary:
		f.emitBinary(x)
	case *Cond:
		f.emitCond(x.C, x.A, x.B)
	case *Call:
		f.emitCall(x)
	default:
		f.op(OpPushLit, f.lit(relation.Null()), 0)
		f.push(1)
	}
}

func (f *flattener) emitBinary(x *Binary) {
	switch x.Op {
	case "&&":
		// L falsy → false without evaluating R.
		f.emit(x.L)
		jf := f.op(OpJumpIfFalse, 0, 0)
		f.pop(1)
		f.emit(x.R)
		f.op(OpBoolCast, 0, 0)
		jend := f.op(OpJump, 0, 0)
		f.pop(1)
		f.patch(jf)
		f.op(OpPushLit, f.lit(relation.Bool(false)), 0)
		f.push(1)
		f.patch(jend)
		return
	case "||":
		f.emit(x.L)
		jt := f.op(OpJumpIfTrue, 0, 0)
		f.pop(1)
		f.emit(x.R)
		f.op(OpBoolCast, 0, 0)
		jend := f.op(OpJump, 0, 0)
		f.pop(1)
		f.patch(jt)
		f.op(OpPushLit, f.lit(relation.Bool(true)), 0)
		f.push(1)
		f.patch(jend)
		return
	}
	op, ok := binOpByName[x.Op]
	if !ok {
		// Unknown operator evaluates to null; expressions are
		// side-effect free, so the operands need not run.
		f.op(OpPushLit, f.lit(relation.Null()), 0)
		f.push(1)
		return
	}
	f.emit(x.L)
	f.emit(x.R)
	f.op(OpBinary, int32(op), 0)
	f.pop(1)
}

// emitCond lowers c ? a : b (and iff(c, a, b)).
func (f *flattener) emitCond(c, a, b Node) {
	f.emit(c)
	jf := f.op(OpJumpIfFalse, 0, 0)
	f.pop(1)
	depth := f.cur
	f.emit(a)
	jend := f.op(OpJump, 0, 0)
	f.patch(jf)
	f.cur = depth
	f.emit(b)
	f.patch(jend)
}

func (f *flattener) emitCall(x *Call) {
	switch x.Fn {
	case "iff":
		f.emitCond(x.Args[0], x.Args[1], x.Args[2])
		return
	case "coalesce":
		var jumps []int
		for i, a := range x.Args {
			f.emit(a)
			if i < len(x.Args)-1 {
				jumps = append(jumps, f.op(OpJumpIfNotNull, 0, 0))
				f.pop(1)
			}
		}
		for _, j := range jumps {
			f.patch(j)
		}
		return
	case "lag":
		col := int32(f.prog.cols[x.Args[0].(*Ident).Name])
		if len(x.Args) == 1 {
			f.op(OpLag, col, 1)
			f.push(1)
			return
		}
		if l, ok := x.Args[1].(*Lit); ok && l.Val.isInt {
			f.op(OpLag, col, int32(l.Val.i))
			f.push(1)
			return
		}
		f.emit(x.Args[1])
		f.op(OpLagDyn, col, 0)
		return
	case "gap", "delta":
		f.op(OpGapDelta, int32(f.prog.cols[x.Args[0].(*Ident).Name]), 0)
		f.push(1)
		return
	}
	b, ok := builtinByName[x.Fn]
	if !ok {
		f.op(OpPushLit, f.lit(relation.Null()), 0)
		f.push(1)
		return
	}
	for _, a := range x.Args {
		f.emit(a)
	}
	f.op(OpCall, int32(b), int32(len(x.Args)))
	f.pop(len(x.Args) - 1)
}

// Machine is a reusable evaluation scratchpad for flat programs. It is
// not safe for concurrent use; pool one per worker.
type Machine struct {
	stack []relation.Value
}

// EvalAt evaluates fp with the cursor on rows[idx]; lag walks backwards
// through rows, exactly like RowEnv.
func (m *Machine) EvalAt(fp *FlatProgram, rows []relation.Row, idx int) relation.Value {
	return m.eval(fp, rows, idx, rows[idx], int(^uint32(0)>>1), nil, 0)
}

// EvalSplit evaluates a window-free fp over a split column space:
// column operands below split read row, operands at or above split read
// extra[col-split][pos]. The engine's fused kernels use this to point
// remapped programs at scratch vectors holding not-yet-materialized
// columns, with pos the row's place in the batch. There is no row
// history, so window opcodes evaluate to null (fusion excludes window
// programs).
func (m *Machine) EvalSplit(fp *FlatProgram, row relation.Row, split int, extra [][]relation.Value, pos int) relation.Value {
	return m.eval(fp, nil, 0, row, split, extra, pos)
}

// eval runs fp on row. rows and idx locate row's history for the window
// opcodes (nil rows: no history).
func (m *Machine) eval(fp *FlatProgram, rows []relation.Row, idx int, row relation.Row, split int, extra [][]relation.Value, pos int) relation.Value {
	if cap(m.stack) < fp.MaxStack {
		m.stack = make([]relation.Value, fp.MaxStack)
	}
	s := m.stack[:cap(m.stack)]
	sp := 0
	code := fp.Code
	for pc := 0; pc < len(code); pc++ {
		ins := code[pc]
		switch ins.Op {
		case OpPushLit:
			s[sp] = fp.Lits[ins.A]
			sp++
		case OpPushCol:
			c := int(ins.A)
			switch {
			case c >= split:
				s[sp] = extra[c-split][pos]
			case c >= 0 && c < len(row):
				s[sp] = row[c]
			default:
				s[sp] = relation.Null()
			}
			sp++
		case OpNeg:
			s[sp-1] = EvalNeg(s[sp-1])
		case OpNot:
			s[sp-1] = relation.Bool(!s[sp-1].AsBool())
		case OpBoolCast:
			s[sp-1] = relation.Bool(s[sp-1].AsBool())
		case OpBinary:
			sp--
			s[sp-1] = EvalBinary(BinOp(ins.A), s[sp-1], s[sp])
		case OpJump:
			pc = int(ins.A) - 1
		case OpJumpIfFalse:
			sp--
			if !s[sp].AsBool() {
				pc = int(ins.A) - 1
			}
		case OpJumpIfTrue:
			sp--
			if s[sp].AsBool() {
				pc = int(ins.A) - 1
			}
		case OpJumpIfNotNull:
			if !s[sp-1].IsNull() {
				pc = int(ins.A) - 1
			} else {
				sp--
			}
		case OpCall:
			argc := int(ins.B)
			v := CallBuiltin(Builtin(ins.A), s[sp-argc:sp])
			sp -= argc
			s[sp] = v
			sp++
		case OpLag:
			s[sp] = lagValue(rows, idx, int(ins.A), int(ins.B))
			sp++
		case OpLagDyn:
			n := int(s[sp-1].AsInt())
			s[sp-1] = lagValue(rows, idx, int(ins.A), n)
		case OpGapDelta:
			col := int(ins.A)
			cur := relation.Null()
			if col >= 0 && col < len(row) {
				cur = row[col]
			}
			prev := lagValue(rows, idx, col, 1)
			if cur.IsNull() || prev.IsNull() {
				s[sp] = relation.Null()
			} else {
				s[sp] = relation.Float(cur.AsFloat() - prev.AsFloat())
			}
			sp++
		}
	}
	return s[0]
}

// EvalBoolAt evaluates and coerces to a boolean (null → false).
func (m *Machine) EvalBoolAt(fp *FlatProgram, rows []relation.Row, idx int) bool {
	return m.EvalAt(fp, rows, idx).AsBool()
}

// lagValue mirrors RowEnv.Lag's miss semantics collapsed through
// evalWindow: any miss — non-positive offset, before the head, short
// row — is null.
func lagValue(rows []relation.Row, idx, col, n int) relation.Value {
	j := idx - n
	if n <= 0 || j < 0 {
		return relation.Null()
	}
	r := rows[j]
	if col < 0 || col >= len(r) {
		return relation.Null()
	}
	return r[col]
}
