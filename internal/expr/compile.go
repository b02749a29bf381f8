package expr

import (
	"fmt"
	"strings"
	"sync"

	"ivnt/internal/relation"
)

// Env supplies row context during evaluation. Col returns the value of
// a column by index; Lag returns the value of the column n rows earlier
// in the same (per-signal, time-ordered) sequence, with ok=false at the
// sequence head. Window access is what lets constraint rules express
// temporal conditions such as cycle-time violations (Sec. 4.1).
type Env interface {
	Col(i int) relation.Value
	Lag(i, n int) (relation.Value, bool)
}

// Program is a compiled expression bound to a schema.
type Program struct {
	Source string
	root   Node
	cols   map[string]int
	window bool

	flatOnce sync.Once
	flat     *FlatProgram
}

// Compile parses src and resolves all column references against the
// schema.
func Compile(src string, schema relation.Schema) (*Program, error) {
	root, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return CompileNode(src, root, schema)
}

// CompileNode binds an already parsed AST to a schema.
func CompileNode(src string, root Node, schema relation.Schema) (*Program, error) {
	cols := map[string]int{}
	for _, name := range Idents(root) {
		i := schema.Index(name)
		if i < 0 {
			return nil, fmt.Errorf("expr: unknown column %q in %q (schema %s)", name, src, schema)
		}
		cols[name] = i
	}
	if err := checkCalls(root); err != nil {
		return nil, fmt.Errorf("expr: %v in %q", err, src)
	}
	return &Program{Source: src, root: root, cols: cols, window: UsesWindow(root)}, nil
}

// UsesWindow reports whether the program needs lag history.
func (p *Program) UsesWindow() bool { return p.window }

// Columns returns the referenced column names.
func (p *Program) Columns() []string {
	out := make([]string, 0, len(p.cols))
	for n := range p.cols {
		out = append(out, n)
	}
	return out
}

// arity describes min/max argument counts per builtin; max < 0 means
// variadic.
var arity = map[string][2]int{
	"abs": {1, 1}, "min": {2, -1}, "max": {2, -1}, "floor": {1, 1},
	"ceil": {1, 1}, "round": {1, 1}, "sqrt": {1, 1}, "pow": {2, 2},
	"log": {1, 1}, "exp": {1, 1},
	"int": {1, 1}, "float": {1, 1}, "str": {1, 1},
	"contains": {2, 2}, "startswith": {2, 2}, "endswith": {2, 2},
	"lower": {1, 1}, "upper": {1, 1}, "strlen": {1, 1},
	"byteat": {2, 2}, "ubits": {3, 3}, "sbits": {3, 3},
	"ulbits": {3, 3}, "slbits": {3, 3},
	"ube": {3, 3}, "ule": {3, 3}, "paylen": {1, 1},
	"isnull": {1, 1}, "coalesce": {1, -1},
	"lag": {1, 2}, "gap": {1, 1}, "delta": {1, 1},
	"iff":    {3, 3},
	"lookup": {2, 2}, "slice": {3, 3},
}

func checkCalls(n Node) error {
	switch x := n.(type) {
	case *Unary:
		return checkCalls(x.X)
	case *Binary:
		if err := checkCalls(x.L); err != nil {
			return err
		}
		return checkCalls(x.R)
	case *Cond:
		for _, c := range []Node{x.C, x.A, x.B} {
			if err := checkCalls(c); err != nil {
				return err
			}
		}
	case *Call:
		a, ok := arity[x.Fn]
		if !ok {
			return fmt.Errorf("unknown function %q", x.Fn)
		}
		if len(x.Args) < a[0] || (a[1] >= 0 && len(x.Args) > a[1]) {
			return fmt.Errorf("function %q: wrong argument count %d", x.Fn, len(x.Args))
		}
		switch x.Fn {
		case "lag", "gap", "delta":
			if _, ok := x.Args[0].(*Ident); !ok {
				return fmt.Errorf("function %q: first argument must be a column name", x.Fn)
			}
		}
		for _, arg := range x.Args {
			if err := checkCalls(arg); err != nil {
				return err
			}
		}
	}
	return nil
}

// Eval evaluates the program against env. Runtime type errors evaluate
// to null rather than aborting the batch: a malformed payload in one
// trace row must not poison a billion-row job.
func (p *Program) Eval(env Env) relation.Value {
	return p.eval(p.root, env)
}

// EvalBool evaluates and coerces to a boolean (null → false).
func (p *Program) EvalBool(env Env) bool {
	return p.eval(p.root, env).AsBool()
}

func (p *Program) eval(n Node, env Env) relation.Value {
	switch x := n.(type) {
	case *Lit:
		v := x.Val
		switch {
		case v.isNull:
			return relation.Null()
		case v.isBool:
			return relation.Bool(v.b)
		case v.isInt:
			return relation.Int(v.i)
		case v.isFloat:
			return relation.Float(v.f)
		default:
			return relation.Str(v.s)
		}
	case *Ident:
		return env.Col(p.cols[x.Name])
	case *Unary:
		v := p.eval(x.X, env)
		switch x.Op {
		case "-":
			return EvalNeg(v)
		case "!":
			return relation.Bool(!v.AsBool())
		}
		return relation.Null()
	case *Binary:
		return p.evalBinary(x, env)
	case *Cond:
		if p.eval(x.C, env).AsBool() {
			return p.eval(x.A, env)
		}
		return p.eval(x.B, env)
	case *Call:
		return p.evalCall(x, env)
	}
	return relation.Null()
}

func bothInt(a, b relation.Value) bool {
	return a.K == relation.KindInt && b.K == relation.KindInt
}

// binOpByName maps source-level operator spellings to BinOp codes;
// && and || are absent because they short-circuit (see EvalBinary).
var binOpByName = map[string]BinOp{
	"==": BinEq, "!=": BinNe, "<": BinLt, "<=": BinLe, ">": BinGt,
	">=": BinGe, "+": BinAdd, "-": BinSub, "*": BinMul, "/": BinDiv,
	"%": BinMod,
}

func (p *Program) evalBinary(x *Binary, env Env) relation.Value {
	// Short-circuit boolean connectives.
	switch x.Op {
	case "&&":
		if !p.eval(x.L, env).AsBool() {
			return relation.Bool(false)
		}
		return relation.Bool(p.eval(x.R, env).AsBool())
	case "||":
		if p.eval(x.L, env).AsBool() {
			return relation.Bool(true)
		}
		return relation.Bool(p.eval(x.R, env).AsBool())
	}
	a := p.eval(x.L, env)
	b := p.eval(x.R, env)
	op, ok := binOpByName[x.Op]
	if !ok {
		return relation.Null()
	}
	return EvalBinary(op, a, b)
}

// compareForOrder compares numerically when both sides are numeric
// (including numeric strings), else lexicographically.
func compareForOrder(a, b relation.Value) int {
	if a.IsNumeric() && b.IsNumeric() {
		fa, fb := a.AsFloat(), b.AsFloat()
		switch {
		case fa < fb:
			return -1
		case fa > fb:
			return 1
		default:
			return 0
		}
	}
	sa, sb := a.AsString(), b.AsString()
	switch {
	case sa < sb:
		return -1
	case sa > sb:
		return 1
	default:
		return 0
	}
}

func (p *Program) evalCall(x *Call, env Env) relation.Value {
	fn := x.Fn
	switch fn {
	case "lag", "gap", "delta":
		return p.evalWindow(x, env)
	case "iff":
		if p.eval(x.Args[0], env).AsBool() {
			return p.eval(x.Args[1], env)
		}
		return p.eval(x.Args[2], env)
	case "coalesce":
		for _, a := range x.Args {
			if v := p.eval(a, env); !v.IsNull() {
				return v
			}
		}
		return relation.Null()
	}
	b, ok := builtinByName[fn]
	if !ok {
		return relation.Null()
	}
	args := make([]relation.Value, len(x.Args))
	for i, a := range x.Args {
		args[i] = p.eval(a, env)
	}
	return CallBuiltin(b, args)
}

// lookupTable translates a raw value through a "k=v;k=v" table — the
// serialized form of a documented value table (Hex/categorical mapping,
// Sec. 3.2). A missing entry renders as "raw(N)" so undocumented states
// stay visible to analysts instead of vanishing.
func lookupTable(v relation.Value, table string) relation.Value {
	if v.IsNull() {
		return relation.Null()
	}
	key := v.AsString()
	for len(table) > 0 {
		var entry string
		if i := strings.IndexByte(table, ';'); i >= 0 {
			entry, table = table[:i], table[i+1:]
		} else {
			entry, table = table, ""
		}
		if j := strings.IndexByte(entry, '='); j >= 0 && entry[:j] == key {
			return relation.Str(entry[j+1:])
		}
	}
	return relation.Str("raw(" + key + ")")
}

// slicePayload returns n bytes of a payload starting at byte offset
// first — the u₁ relevant-byte extraction of Sec. 3.2 (rel.B in
// Table 1).
func slicePayload(payload relation.Value, first, n int) relation.Value {
	if payload.K != relation.KindBytes || first < 0 || n < 0 || first+n > len(payload.S) {
		return relation.Null()
	}
	// A substring: shares the payload's immutable data, no copy.
	return relation.Value{K: relation.KindBytes, S: payload.S[first : first+n]}
}

func (p *Program) evalWindow(x *Call, env Env) relation.Value {
	col := x.Args[0].(*Ident)
	idx := p.cols[col.Name]
	switch x.Fn {
	case "lag":
		n := 1
		if len(x.Args) == 2 {
			n = int(p.eval(x.Args[1], env).AsInt())
		}
		v, ok := env.Lag(idx, n)
		if !ok {
			return relation.Null()
		}
		return v
	case "gap", "delta":
		cur := env.Col(idx)
		prev, ok := env.Lag(idx, 1)
		if !ok || cur.IsNull() || prev.IsNull() {
			return relation.Null()
		}
		return relation.Float(cur.AsFloat() - prev.AsFloat())
	}
	return relation.Null()
}

// extractBits reads n bits starting at MSB-first bit position start from
// a byte payload, as CAN signal extraction does for Motorola-ordered
// signals.
func extractBits(payload relation.Value, start, n int, signed bool) relation.Value {
	if payload.K != relation.KindBytes || n <= 0 || n > 64 || start < 0 {
		return relation.Null()
	}
	b := payload.B()
	if start+n > len(b)*8 {
		return relation.Null()
	}
	var out uint64
	for i := 0; i < n; i++ {
		bit := start + i
		byteIdx := bit / 8
		bitIdx := 7 - bit%8
		out = out<<1 | uint64(b[byteIdx]>>bitIdx&1)
	}
	if signed && n < 64 && out&(1<<(n-1)) != 0 {
		return relation.Int(int64(out) - (1 << n))
	}
	return relation.Int(int64(out))
}

// extractBitsLE reads n bits starting at LSB-first bit position start
// (DBC/Intel numbering: bit 0 is the least significant bit of byte 0)
// assembling them little-endian — the layout of Intel-ordered CAN
// signals, including unaligned ones.
func extractBitsLE(payload relation.Value, start, n int, signed bool) relation.Value {
	if payload.K != relation.KindBytes || n <= 0 || n > 64 || start < 0 {
		return relation.Null()
	}
	b := payload.B()
	if start+n > len(b)*8 {
		return relation.Null()
	}
	var out uint64
	for i := 0; i < n; i++ {
		bit := start + i
		out |= uint64(b[bit/8]>>(bit%8)&1) << i
	}
	if signed && n < 64 && out&(1<<(n-1)) != 0 {
		return relation.Int(int64(out) - (1 << n))
	}
	return relation.Int(int64(out))
}

// extractBytes reads n whole bytes at byte offset off as an unsigned
// integer, big- or little-endian.
func extractBytes(payload relation.Value, off, n int, littleEndian bool) relation.Value {
	if payload.K != relation.KindBytes || n <= 0 || n > 8 || off < 0 {
		return relation.Null()
	}
	b := payload.B()
	if off+n > len(b) {
		return relation.Null()
	}
	var out uint64
	if littleEndian {
		for i := n - 1; i >= 0; i-- {
			out = out<<8 | uint64(b[off+i])
		}
	} else {
		for i := 0; i < n; i++ {
			out = out<<8 | uint64(b[off+i])
		}
	}
	return relation.Int(int64(out))
}

// RowEnv is an Env over a time-ordered row slice with a cursor; Lag
// walks backwards through the slice.
type RowEnv struct {
	Rows []relation.Row
	Idx  int
}

// Col returns the cursor row's cell i.
func (e *RowEnv) Col(i int) relation.Value {
	r := e.Rows[e.Idx]
	if i < 0 || i >= len(r) {
		return relation.Null()
	}
	return r[i]
}

// Lag returns cell i of the row n positions before the cursor.
func (e *RowEnv) Lag(i, n int) (relation.Value, bool) {
	j := e.Idx - n
	if n <= 0 || j < 0 {
		return relation.Null(), false
	}
	r := e.Rows[j]
	if i < 0 || i >= len(r) {
		return relation.Null(), false
	}
	return r[i], true
}

// SingleRowEnv adapts one row with no history (Lag always misses).
type SingleRowEnv struct {
	Row relation.Row
}

// Col returns cell i of the row.
func (e SingleRowEnv) Col(i int) relation.Value {
	if i < 0 || i >= len(e.Row) {
		return relation.Null()
	}
	return e.Row[i]
}

// Lag always reports no history.
func (e SingleRowEnv) Lag(int, int) (relation.Value, bool) { return relation.Null(), false }
