// Per-column dictionary and run-length encodings behind flagEncoded.
//
// Decoded in-vehicle signals are overwhelmingly low-cardinality and
// piecewise-constant — status flags, gears, forward-filled sensors —
// so most columns are either a few distinct values repeated (dict wins)
// or long runs of one value (RLE wins). The encoder measures both
// against the raw payload in one pass and keeps whichever is strictly
// smallest; the decoder accepts all three unconditionally.
//
// Layout per column when flagEncoded is set (first byte selects):
//
//	enc=0x00 raw   the standard column encoding, unchanged
//	enc=0x01 dict  tag uint8 | nulls bitmap? | dcount uvarint |
//	               dcount values (kind payloads as in the raw format) |
//	               m uvarint dictionary indexes, one per non-null cell
//	enc=0x02 rle   tag uint8 | nulls bitmap? | nruns uvarint |
//	               nruns × (runlen uvarint ≥ 1, one value payload)
//
// Dict and RLE apply only to homogeneous int/float/string/bytes
// columns: bool is already one bit per cell, mixed and all-null
// columns stay raw. Hardening: dict indexes must be < dcount and
// dcount ≤ m; RLE run lengths must be ≥ 1 and total exactly m.
package colcodec

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"ivnt/internal/relation"
)

const (
	encRaw  = 0x00
	encDict = 0x01
	encRLE  = 0x02
)

// maxDictBuild caps the distinct-value set tracked while sizing a
// column: past 64 Ki distinct values the index stream alone costs more
// than most raw payloads, so the encoder stops counting and keeps raw.
const maxDictBuild = 1 << 16

// DebugMutateRuns, when set, receives every RLE column's run lengths
// just before they are written. Difftest uses it to inject a
// wrong-run-length corruption (structurally valid, wrong data) and
// prove the differential harness catches it. Never set in production.
var DebugMutateRuns func(runLens []int)

func uvarintLen(u uint64) int {
	n := 1
	for u >= 0x80 {
		u >>= 7
		n++
	}
	return n
}

// valueBytes is a cell's cost in the raw column payload (and in a
// dictionary or run value slot): varint for ints, 8 for floats,
// length-prefixed bytes for string/bytes.
func valueBytes(v relation.Value) int {
	switch v.K {
	case relation.KindInt:
		i := v.I()
		return uvarintLen(uint64(i)<<1 ^ uint64(i>>63))
	case relation.KindFloat:
		return 8
	case relation.KindString, relation.KindBytes:
		return uvarintLen(uint64(len(v.S))) + len(v.S)
	}
	return 0
}

// encodeColumnSelect writes one column under the flagEncoded layout,
// choosing the cheapest of raw/dict/RLE by exact byte cost.
func encodeColumnSelect(w *bytes.Buffer, rows []relation.Row, ci int, scratch []byte) {
	kind, mixed, nulls := classifyColumn(rows, ci)
	if mixed || kind == relation.KindNull || kind == relation.KindBool {
		w.WriteByte(encRaw)
		mEncodings.With("raw").Inc()
		encodeColumn(w, rows, ci, scratch)
		return
	}

	rawB, dictB, rleB := columnCosts(rows, ci)
	enc := byte(encRaw)
	best := rawB
	if dictB < best {
		enc, best = encDict, dictB
	}
	if rleB < best {
		enc = encRLE
	}
	switch enc {
	case encDict:
		w.WriteByte(encDict)
		mEncodings.With("dict").Inc()
		encodeDict(w, rows, ci, kind, nulls, scratch)
	case encRLE:
		w.WriteByte(encRLE)
		mEncodings.With("rle").Inc()
		encodeRLE(w, rows, ci, kind, nulls, scratch)
	default:
		w.WriteByte(encRaw)
		mEncodings.With("raw").Inc()
		encodeColumn(w, rows, ci, scratch)
	}
}

// columnCosts sizes the three candidate payloads (excluding the shared
// tag byte and null bitmap) in one pass over the non-null cells. A
// column with more than maxDictBuild distinct values reports an
// unreachable dict cost.
func columnCosts(rows []relation.Row, ci int) (rawB, dictB, rleB int) {
	dict := make(map[relation.Value]int)
	dictOverflow := false
	dictValB, dictIdxB := 0, 0
	nruns, runLen := 0, 0
	var prev relation.Value
	for _, r := range rows {
		v := r[ci]
		if v.K == relation.KindNull {
			continue
		}
		vb := valueBytes(v)
		rawB += vb
		if runLen > 0 && prev == v {
			runLen++
		} else {
			if runLen > 0 {
				rleB += uvarintLen(uint64(runLen)) + valueBytes(prev)
				nruns++
			}
			prev, runLen = v, 1
		}
		if !dictOverflow {
			id, ok := dict[v]
			if !ok {
				if len(dict) >= maxDictBuild {
					dictOverflow = true
					continue
				}
				id = len(dict)
				dict[v] = id
				dictValB += vb
			}
			dictIdxB += uvarintLen(uint64(id))
		}
	}
	if runLen > 0 {
		rleB += uvarintLen(uint64(runLen)) + valueBytes(prev)
		nruns++
	}
	rleB += uvarintLen(uint64(nruns))
	dictB = math.MaxInt
	if !dictOverflow {
		dictB = uvarintLen(uint64(len(dict))) + dictValB + dictIdxB
	}
	return rawB, dictB, rleB
}

// writeValue emits one value payload (raw-format cell, sans kind byte).
func writeValue(w *bytes.Buffer, v relation.Value, scratch []byte) {
	switch v.K {
	case relation.KindInt:
		w.Write(scratch[:binary.PutVarint(scratch, v.I())])
	case relation.KindFloat:
		binary.LittleEndian.PutUint64(scratch[:8], v.N)
		w.Write(scratch[:8])
	case relation.KindString, relation.KindBytes:
		w.Write(scratch[:binary.PutUvarint(scratch, uint64(len(v.S)))])
		w.WriteString(v.S)
	}
}

func writeColumnHeader(w *bytes.Buffer, rows []relation.Row, ci int, kind relation.Kind, nulls bool) {
	tag := byte(kind)
	if nulls {
		tag |= tagHasNulls
	}
	w.WriteByte(tag)
	if nulls {
		writeBitmap(w, rows, func(r relation.Row) bool { return r[ci].K == relation.KindNull })
	}
}

func encodeDict(w *bytes.Buffer, rows []relation.Row, ci int, kind relation.Kind, nulls bool, scratch []byte) {
	writeColumnHeader(w, rows, ci, kind, nulls)
	// First-appearance order: the id stream is smallest when early rows
	// get small ids, and the decoder rebuilds the same order for free.
	dict := make(map[relation.Value]int)
	var vals []relation.Value
	ids := make([]int, 0, len(rows))
	for _, r := range rows {
		v := r[ci]
		if v.K == relation.KindNull {
			continue
		}
		id, ok := dict[v]
		if !ok {
			id = len(vals)
			dict[v] = id
			vals = append(vals, v)
		}
		ids = append(ids, id)
	}
	w.Write(scratch[:binary.PutUvarint(scratch, uint64(len(vals)))])
	for _, v := range vals {
		writeValue(w, v, scratch)
	}
	for _, id := range ids {
		w.Write(scratch[:binary.PutUvarint(scratch, uint64(id))])
	}
}

func encodeRLE(w *bytes.Buffer, rows []relation.Row, ci int, kind relation.Kind, nulls bool, scratch []byte) {
	writeColumnHeader(w, rows, ci, kind, nulls)
	var lens []int
	var vals []relation.Value
	for _, r := range rows {
		v := r[ci]
		if v.K == relation.KindNull {
			continue
		}
		if len(vals) > 0 && vals[len(vals)-1] == v {
			lens[len(lens)-1]++
		} else {
			vals = append(vals, v)
			lens = append(lens, 1)
		}
	}
	if DebugMutateRuns != nil {
		DebugMutateRuns(lens)
	}
	w.Write(scratch[:binary.PutUvarint(scratch, uint64(len(lens)))])
	for i, v := range vals {
		w.Write(scratch[:binary.PutUvarint(scratch, uint64(lens[i]))])
		writeValue(w, v, scratch)
	}
}

// decodeColumnSelect dispatches one flagEncoded column on its encoding
// byte.
func decodeColumnSelect(rd *reader, rows []relation.Row, ci, n int) error {
	enc, err := rd.byte()
	if err != nil {
		return err
	}
	switch enc {
	case encRaw:
		return decodeColumn(rd, rows, ci, n)
	case encDict:
		return decodeDictColumn(rd, rows, ci, n)
	case encRLE:
		return decodeRLEColumn(rd, rows, ci, n)
	default:
		return fmt.Errorf("bad column encoding %#x", enc)
	}
}

// readEncodedHeader reads and validates the tag + null bitmap shared by
// dict and RLE columns. Only homogeneous int/float/string/bytes columns
// may carry these encodings.
func readEncodedHeader(rd *reader, n int) (kind relation.Kind, isNull func(int) bool, m int, err error) {
	tag, err := rd.byte()
	if err != nil {
		return 0, nil, 0, err
	}
	k := tag & 0x0F
	switch relation.Kind(k) {
	case relation.KindInt, relation.KindFloat, relation.KindString, relation.KindBytes:
	default:
		return 0, nil, 0, fmt.Errorf("kind %d is not dict/rle-encodable", k)
	}
	var nulls []byte
	if tag&tagHasNulls != 0 {
		nulls, err = rd.bytes((n + 7) / 8)
		if err != nil {
			return 0, nil, 0, err
		}
	}
	isNull = func(i int) bool {
		return nulls != nil && nulls[i/8]&(1<<(i%8)) != 0
	}
	m = n
	if nulls != nil {
		m = 0
		for i := 0; i < n; i++ {
			if !isNull(i) {
				m++
			}
		}
	}
	return relation.Kind(k), isNull, m, nil
}

// value reads one value payload of the given homogeneous kind. String
// and bytes payloads are copied out of the reader's buffer once; the
// cells a dictionary entry or run expands to then share that immutable
// copy.
func (r *reader) value(k relation.Kind) (relation.Value, error) {
	switch k {
	case relation.KindInt:
		i, err := r.varint()
		if err != nil {
			return relation.Value{}, err
		}
		return relation.Int(i), nil
	case relation.KindFloat:
		f, err := r.float()
		if err != nil {
			return relation.Value{}, err
		}
		return relation.Float(f), nil
	default: // KindString or KindBytes, pre-validated by readEncodedHeader
		l, err := r.uvarint()
		if err != nil {
			return relation.Value{}, err
		}
		b, err := r.bytes(int(l))
		if err != nil {
			return relation.Value{}, err
		}
		return relation.Value{K: k, S: string(b)}, nil
	}
}

func decodeDictColumn(rd *reader, rows []relation.Row, ci, n int) error {
	kind, isNull, m, err := readEncodedHeader(rd, n)
	if err != nil {
		return err
	}
	dcount, err := rd.uvarint()
	if err != nil {
		return err
	}
	// A dictionary never outgrows the cells it describes — the writer
	// would have kept raw — so dcount > m is crafted, and bounds the
	// allocation below by m.
	if dcount > uint64(m) {
		return fmt.Errorf("dictionary size %d exceeds %d non-null cells", dcount, m)
	}
	if m > 0 && dcount == 0 {
		return fmt.Errorf("empty dictionary for %d non-null cells", m)
	}
	vals := make([]relation.Value, dcount)
	for i := range vals {
		vals[i], err = rd.value(kind)
		if err != nil {
			return err
		}
	}
	for i := 0; i < n; i++ {
		if isNull(i) {
			continue
		}
		id, err := rd.uvarint()
		if err != nil {
			return err
		}
		if id >= dcount {
			return fmt.Errorf("dictionary index %d out of range (%d entries)", id, dcount)
		}
		rows[i][ci] = vals[id]
	}
	return nil
}

func decodeRLEColumn(rd *reader, rows []relation.Row, ci, n int) error {
	kind, isNull, m, err := readEncodedHeader(rd, n)
	if err != nil {
		return err
	}
	nruns, err := rd.uvarint()
	if err != nil {
		return err
	}
	if nruns > uint64(m) {
		return fmt.Errorf("%d runs for %d non-null cells", nruns, m)
	}
	i := 0 // row cursor, advanced past nulls
	covered := 0
	for run := uint64(0); run < nruns; run++ {
		rl, err := rd.uvarint()
		if err != nil {
			return err
		}
		if rl == 0 {
			return fmt.Errorf("zero-length run")
		}
		if rl > uint64(m-covered) {
			return fmt.Errorf("run length %d overflows %d remaining cells", rl, m-covered)
		}
		v, err := rd.value(kind)
		if err != nil {
			return err
		}
		for c := uint64(0); c < rl; c++ {
			for isNull(i) {
				i++
			}
			rows[i][ci] = v
			i++
		}
		covered += int(rl)
	}
	if covered != m {
		return fmt.Errorf("runs cover %d of %d non-null cells", covered, m)
	}
	return nil
}
