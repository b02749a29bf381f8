package expr

import (
	"math"
	"strings"

	"ivnt/internal/relation"
)

// This file holds the single source of truth for operator and builtin
// semantics. Both evaluation paths — the recursive tree walker in
// compile.go (the reference) and the flat bytecode machine in flat.go
// (the vectorized fast path) — delegate here, so the two cannot drift
// apart: a semantic change lands in exactly one place and the
// differential harness checks the rest.

// BinOp identifies a non-short-circuit binary operator. The boolean
// connectives && and || are not BinOps: they need lazy right-hand
// evaluation, which the tree walker does by recursion and the flat
// machine by conditional jumps.
type BinOp uint8

const (
	BinEq BinOp = iota
	BinNe
	BinLt
	BinLe
	BinGt
	BinGe
	BinAdd
	BinSub
	BinMul
	BinDiv
	BinMod
)

// EvalBinary applies a strict binary operator to two already-evaluated
// operands, with the engine's null discipline: comparisons against null
// are false, arithmetic on null is null, division by zero is null.
func EvalBinary(op BinOp, a, b relation.Value) relation.Value {
	switch op {
	case BinEq:
		return relation.Bool(a.Equal(b))
	case BinNe:
		return relation.Bool(!a.Equal(b))
	case BinLt, BinLe, BinGt, BinGe:
		if a.IsNull() || b.IsNull() {
			return relation.Bool(false)
		}
		c := compareForOrder(a, b)
		switch op {
		case BinLt:
			return relation.Bool(c < 0)
		case BinLe:
			return relation.Bool(c <= 0)
		case BinGt:
			return relation.Bool(c > 0)
		default:
			return relation.Bool(c >= 0)
		}
	}
	// Arithmetic.
	if a.IsNull() || b.IsNull() {
		return relation.Null()
	}
	if op == BinAdd && (a.K == relation.KindString || b.K == relation.KindString) {
		return relation.Str(a.AsString() + b.AsString())
	}
	switch op {
	case BinAdd:
		if bothInt(a, b) {
			return relation.Int(a.I() + b.I())
		}
		return relation.Float(a.AsFloat() + b.AsFloat())
	case BinSub:
		if bothInt(a, b) {
			return relation.Int(a.I() - b.I())
		}
		return relation.Float(a.AsFloat() - b.AsFloat())
	case BinMul:
		if bothInt(a, b) {
			return relation.Int(a.I() * b.I())
		}
		return relation.Float(a.AsFloat() * b.AsFloat())
	case BinDiv:
		f := b.AsFloat()
		if f == 0 {
			return relation.Null()
		}
		return relation.Float(a.AsFloat() / f)
	case BinMod:
		if bothInt(a, b) {
			if b.I() == 0 {
				return relation.Null()
			}
			return relation.Int(a.I() % b.I())
		}
		f := b.AsFloat()
		if f == 0 {
			return relation.Null()
		}
		return relation.Float(math.Mod(a.AsFloat(), f))
	}
	return relation.Null()
}

// EvalNeg applies unary minus: negates ints and floats, anything else
// evaluates to null.
func EvalNeg(v relation.Value) relation.Value {
	switch v.K {
	case relation.KindInt:
		return relation.Int(-v.I())
	case relation.KindFloat:
		return relation.Float(-v.F())
	default:
		return relation.Null()
	}
}

// Builtin identifies an eagerly-evaluated builtin function. Lazy forms
// (iff, coalesce) and window functions (lag, gap, delta) are not
// Builtins: the flat machine lowers them to jumps and dedicated window
// opcodes, and the tree walker special-cases them before argument
// evaluation.
type Builtin uint8

const (
	BAbs Builtin = iota
	BMin
	BMax
	BFloor
	BCeil
	BRound
	BSqrt
	BPow
	BLog
	BExp
	BInt
	BFloat
	BStr
	BContains
	BStartswith
	BEndswith
	BLower
	BUpper
	BStrlen
	BIsnull
	BByteat
	BPaylen
	BUbits
	BSbits
	BUlbits
	BSlbits
	BUbe
	BUle
	BLookup
	BSlice
)

// builtinByName maps source-level function names to Builtin codes.
// Names absent here (lag, gap, delta, iff, coalesce) are handled
// structurally by each evaluation path.
var builtinByName = map[string]Builtin{
	"abs": BAbs, "min": BMin, "max": BMax, "floor": BFloor,
	"ceil": BCeil, "round": BRound, "sqrt": BSqrt, "pow": BPow,
	"log": BLog, "exp": BExp,
	"int": BInt, "float": BFloat, "str": BStr,
	"contains": BContains, "startswith": BStartswith, "endswith": BEndswith,
	"lower": BLower, "upper": BUpper, "strlen": BStrlen,
	"isnull": BIsnull, "byteat": BByteat, "paylen": BPaylen,
	"ubits": BUbits, "sbits": BSbits, "ulbits": BUlbits, "slbits": BSlbits,
	"ube": BUbe, "ule": BUle,
	"lookup": BLookup, "slice": BSlice,
}

// CallBuiltin applies an eager builtin to evaluated arguments. It never
// retains args: callers may pass a slice of their scratch stack.
func CallBuiltin(fn Builtin, args []relation.Value) relation.Value {
	switch fn {
	case BAbs:
		if args[0].K == relation.KindInt {
			if args[0].I() < 0 {
				return relation.Int(-args[0].I())
			}
			return args[0]
		}
		return relation.Float(math.Abs(args[0].AsFloat()))
	case BMin, BMax:
		out := args[0]
		for _, v := range args[1:] {
			c := compareForOrder(v, out)
			if (fn == BMin && c < 0) || (fn == BMax && c > 0) {
				out = v
			}
		}
		return out
	case BFloor:
		return relation.Float(math.Floor(args[0].AsFloat()))
	case BCeil:
		return relation.Float(math.Ceil(args[0].AsFloat()))
	case BRound:
		return relation.Float(math.Round(args[0].AsFloat()))
	case BSqrt:
		return relation.Float(math.Sqrt(args[0].AsFloat()))
	case BPow:
		return relation.Float(math.Pow(args[0].AsFloat(), args[1].AsFloat()))
	case BLog:
		return relation.Float(math.Log(args[0].AsFloat()))
	case BExp:
		return relation.Float(math.Exp(args[0].AsFloat()))
	case BInt:
		return relation.Int(args[0].AsInt())
	case BFloat:
		return relation.Float(args[0].AsFloat())
	case BStr:
		return relation.Str(args[0].AsString())
	case BContains:
		return relation.Bool(strings.Contains(args[0].AsString(), args[1].AsString()))
	case BStartswith:
		return relation.Bool(strings.HasPrefix(args[0].AsString(), args[1].AsString()))
	case BEndswith:
		return relation.Bool(strings.HasSuffix(args[0].AsString(), args[1].AsString()))
	case BLower:
		return relation.Str(strings.ToLower(args[0].AsString()))
	case BUpper:
		return relation.Str(strings.ToUpper(args[0].AsString()))
	case BStrlen:
		return relation.Int(int64(len(args[0].AsString())))
	case BIsnull:
		return relation.Bool(args[0].IsNull())
	case BByteat:
		b := args[0].S
		i := int(args[1].AsInt())
		if args[0].K != relation.KindBytes || i < 0 || i >= len(b) {
			return relation.Null()
		}
		return relation.Int(int64(b[i]))
	case BPaylen:
		if args[0].K != relation.KindBytes {
			return relation.Null()
		}
		return relation.Int(int64(len(args[0].S)))
	case BUbits, BSbits:
		return extractBits(args[0], int(args[1].AsInt()), int(args[2].AsInt()), fn == BSbits)
	case BUlbits, BSlbits:
		return extractBitsLE(args[0], int(args[1].AsInt()), int(args[2].AsInt()), fn == BSlbits)
	case BUbe, BUle:
		return extractBytes(args[0], int(args[1].AsInt()), int(args[2].AsInt()), fn == BUle)
	case BLookup:
		return lookupTable(args[0], args[1].AsString())
	case BSlice:
		return slicePayload(args[0], int(args[1].AsInt()), int(args[2].AsInt()))
	}
	return relation.Null()
}
