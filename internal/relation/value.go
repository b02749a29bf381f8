// Package relation provides the tabular data model used by the trace
// processing engine: typed values, schemas, rows and partitioned relations.
//
// The paper expresses Algorithm 1 in relational algebra over tables of
// trace elements; this package is the substrate those operators run on.
// Values are a compact tagged union rather than interface{} so that rows
// stay allocation-friendly at the row counts the paper targets.
package relation

import (
	"fmt"
	"hash/fnv"
	"math"
	"strconv"
	"unsafe"
)

// Kind enumerates the dynamic type of a Value.
type Kind uint8

// Supported value kinds. KindNull is the zero value so that a zero Value
// is a well-formed null.
const (
	KindNull Kind = iota
	KindBool
	KindInt
	KindFloat
	KindString
	KindBytes
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindBool:
		return "bool"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindBytes:
		return "bytes"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is a dynamically typed scalar cell, 32 bytes with one pointer
// word. K selects the payload: bool (0/1), int (two's complement) and
// float (math.Float64bits) share the one 64-bit word N; strings and
// bytes share S. Use the I, F and B accessors rather than decoding N by
// hand. Fields are exported so values cross gob encoding to remote
// executors unchanged, and the struct is comparable: a == b is the
// bitwise cell identity (kind, payload bits, string data) that run
// detection, dictionaries and the vectorized dedup use.
type Value struct {
	K Kind
	N uint64 // KindBool (0/1), KindInt, KindFloat (bit pattern)
	S string // KindString, and KindBytes (the byte data, see Bytes)
}

// Null returns the null value.
func Null() Value { return Value{} }

// Bool wraps a bool.
func Bool(b bool) Value {
	if b {
		return Value{K: KindBool, N: 1}
	}
	return Value{K: KindBool}
}

// Int wraps an int64.
func Int(i int64) Value { return Value{K: KindInt, N: uint64(i)} }

// Float wraps a float64. The exact bit pattern is kept, so NaN payloads
// and -0 survive every copy, == comparison and codec roundtrip.
func Float(f float64) Value { return Value{K: KindFloat, N: math.Float64bits(f)} }

// String wraps a string. The method set of Value already has String()
// for fmt.Stringer, so the constructor is named Str.
func Str(s string) Value { return Value{K: KindString, S: s} }

// Bytes wraps a byte slice without copying: the cell's S aliases b's
// backing array. The caller hands b over — it must not be mutated
// afterwards, since the cell (and every copy of it, map key or
// dictionary entry built from it) reads the same memory as an
// immutable string. Copy first when the buffer is reused. Nil and
// empty slices wrap to the same cell.
func Bytes(b []byte) Value {
	return Value{K: KindBytes, S: unsafe.String(unsafe.SliceData(b), len(b))}
}

// I returns the integer payload of a KindInt or KindBool (0/1) cell.
// Other kinds read their raw payload word; use AsInt to convert.
func (v Value) I() int64 { return int64(v.N) }

// F returns the payload of a KindFloat cell. Other kinds read their raw
// payload word as float bits; use AsFloat to convert.
func (v Value) F() float64 { return math.Float64frombits(v.N) }

// B returns the payload of a KindBytes cell (for KindString, the
// string's bytes) without copying. The slice is read-only: it aliases
// string data, and writing through it is undefined behaviour. An empty
// payload may come back as nil.
func (v Value) B() []byte { return unsafe.Slice(unsafe.StringData(v.S), len(v.S)) }

// IsNull reports whether v is the null value.
func (v Value) IsNull() bool { return v.K == KindNull }

// AsBool returns the boolean payload; null and zero numerics are false.
func (v Value) AsBool() bool {
	switch v.K {
	case KindBool, KindInt:
		return v.N != 0
	case KindFloat:
		return v.F() != 0
	default:
		return false
	}
}

// AsInt converts the value to int64 (truncating floats, parsing strings
// best-effort; null is 0).
func (v Value) AsInt() int64 {
	switch v.K {
	case KindBool, KindInt:
		return v.I()
	case KindFloat:
		return int64(v.F())
	case KindString:
		i, err := strconv.ParseInt(v.S, 0, 64)
		if err != nil {
			return 0
		}
		return i
	default:
		return 0
	}
}

// AsFloat converts the value to float64 (null is 0; non-numeric strings
// are NaN).
func (v Value) AsFloat() float64 {
	switch v.K {
	case KindBool, KindInt:
		return float64(v.I())
	case KindFloat:
		return v.F()
	case KindString:
		f, err := strconv.ParseFloat(v.S, 64)
		if err != nil {
			return math.NaN()
		}
		return f
	default:
		return 0
	}
}

// AsString renders the value as a string; bytes are rendered as hex.
func (v Value) AsString() string {
	switch v.K {
	case KindNull:
		return ""
	case KindBool:
		if v.N != 0 {
			return "true"
		}
		return "false"
	case KindInt:
		return strconv.FormatInt(v.I(), 10)
	case KindFloat:
		return strconv.FormatFloat(v.F(), 'g', -1, 64)
	case KindString:
		return v.S
	case KindBytes:
		return fmt.Sprintf("%x", v.S)
	default:
		return ""
	}
}

// String implements fmt.Stringer.
func (v Value) String() string { return v.AsString() }

// IsNumeric reports whether the value holds an int or float, or a string
// that parses as a number.
func (v Value) IsNumeric() bool {
	switch v.K {
	case KindInt, KindFloat:
		return true
	case KindString:
		_, err := strconv.ParseFloat(v.S, 64)
		return err == nil
	default:
		return false
	}
}

// Equal reports deep equality between two values. Int/float compare
// numerically (Int(2) equals Float(2)).
func (v Value) Equal(o Value) bool {
	if v.K == KindNull || o.K == KindNull {
		return v.K == o.K
	}
	if v.isNum() && o.isNum() {
		return v.AsFloat() == o.AsFloat()
	}
	if v.K != o.K {
		return false
	}
	switch v.K {
	case KindBool:
		return (v.N != 0) == (o.N != 0)
	case KindString, KindBytes:
		return v.S == o.S
	default:
		return false
	}
}

func (v Value) isNum() bool { return v.K == KindInt || v.K == KindFloat }

// Compare orders two values: null < bool < numeric < string < bytes, and
// within a class by natural order (bytes lexicographically). It returns
// -1, 0 or +1.
func (v Value) Compare(o Value) int {
	cv, co := v.class(), o.class()
	if cv != co {
		if cv < co {
			return -1
		}
		return 1
	}
	switch cv {
	case 0: // both null
		return 0
	case 1: // bool
		return cmpInt(int64(v.N&1), int64(o.N&1))
	case 2: // numeric
		a, b := v.AsFloat(), o.AsFloat()
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		default:
			return 0
		}
	default: // string, bytes
		switch {
		case v.S < o.S:
			return -1
		case v.S > o.S:
			return 1
		default:
			return 0
		}
	}
}

func (v Value) class() int {
	switch v.K {
	case KindNull:
		return 0
	case KindBool:
		return 1
	case KindInt, KindFloat:
		return 2
	case KindString:
		return 3
	default:
		return 4
	}
}

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// Hash returns a 64-bit hash consistent with Equal (numeric values that
// compare equal hash equally).
func (v Value) Hash() uint64 {
	h := fnv.New64a()
	var buf [9]byte
	switch v.K {
	case KindNull:
		buf[0] = 0
		h.Write(buf[:1])
	case KindBool:
		buf[0] = 1
		buf[1] = byte(v.N & 1)
		h.Write(buf[:2])
	case KindInt, KindFloat:
		buf[0] = 2
		bits := math.Float64bits(v.AsFloat())
		for i := 0; i < 8; i++ {
			buf[1+i] = byte(bits >> (8 * i))
		}
		h.Write(buf[:9])
	case KindString, KindBytes:
		buf[0] = 3
		if v.K == KindBytes {
			buf[0] = 4
		}
		h.Write(buf[:1])
		h.Write([]byte(v.S))
	}
	return h.Sum64()
}
