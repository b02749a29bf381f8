// Package colcodec is the hand-rolled columnar partition codec of the
// v3 cluster wire protocol. It replaces per-row gob reflection (which
// encodes every cell as a 5-field relation.Value struct) with per-column
// typed vectors: varint-packed ints and bools, raw little-endian
// float64s, length-prefixed string/bytes arenas, and a null bitmap per
// column. The schema is NOT part of the stream — both ends of the wire
// already share it (the driver computed it; the executor received it in
// the stage message) — so the payload scales with data bytes only.
//
// Layout (all multi-byte integers are unsigned varints unless noted):
//
//	magic   [2]byte   "C1"
//	flags   uint8     bit0: body is DEFLATE-compressed
//	nrows   uvarint
//	ncols   uvarint   (must equal the schema length on decode)
//	body    — per column, possibly compressed as one DEFLATE stream:
//	  tag   uint8     low nibble: homogeneous relation.Kind of the
//	                  non-null cells, or tagMixed (0xF); bit 0x10 set
//	                  when a null bitmap follows
//	  nulls [ceil(nrows/8)]byte   (only when bit 0x10; bit set = null)
//	  payload for the m non-null cells, in row order:
//	    bool    ceil(m/8) bitmap
//	    int     m zigzag varints
//	    float   m × 8 bytes little-endian IEEE-754
//	    string  m uvarint lengths, then one concatenated arena
//	    bytes   same as string
//	    mixed   per cell: kind uint8 then the cell's payload as above
//	                  (bool as one byte)
//
// When flags bit1 (flagEncoded) is set, every column is preceded by one
// encoding byte selecting raw, dictionary, or run-length representation
// for that column's payload — see encoding.go. Payloads without the
// flag are the raw format above, so pre-encoding streams decode
// unchanged.
//
// Encode buffers come from a sync.Pool so steady-state encoding does
// not regrow buffers per task.
package colcodec

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"

	"ivnt/internal/relation"
)

const (
	magic0 = 'C'
	magic1 = '1'

	flagCompressed = 0x01
	flagEncoded    = 0x02

	tagMixed    = 0xF
	tagHasNulls = 0x10
)

// maxDecodeRows bounds the row count a decoder will allocate for, so a
// corrupt or adversarial header cannot OOM the executor. Partitions at
// the paper's scale are a few hundred thousand rows.
const maxDecodeRows = 1 << 28

// maxZeroColRows bounds the row count when the schema has no columns:
// with zero cells per row there is no body to size the claim against,
// so a tighter cap stands in for the plausibility check.
const maxZeroColRows = 1 << 20

// flateMaxRatio caps decompression: DEFLATE tops out near 1032:1, so a
// body claiming to inflate past ~1040x the wire bytes is a decompression
// bomb, not trace data.
const flateMaxRatio = 1040

// maxEncodedRows bounds the row count of a payload carrying flagEncoded.
// Dict/RLE columns can legitimately describe many rows in a few bytes
// (a constant column is one run), which defeats the raw-format min-body
// plausibility gate — so encoded payloads get a tighter absolute cap
// instead. The encoder falls back to the raw format above it, so the
// cap never rejects our own output; it only bounds what a crafted
// header can make the decoder allocate before column checks run.
const maxEncodedRows = 1 << 22

// Options tune encoding.
type Options struct {
	// Compress runs the column body through DEFLATE (stdlib flate).
	// Worth it for string/bytes-heavy traces crossing real networks;
	// pure overhead on loopback.
	Compress bool

	// Level is the DEFLATE level when Compress is set. Zero means
	// flate.BestSpeed — the measured default: full DEFLATE is ~11x
	// slower to encode for ~2.5x smaller output (see the codec bench) —
	// any other value is handed to flate.NewWriter unchanged
	// (flate.BestCompression, flate.HuffmanOnly, ...).
	Level int

	// Encodings lets the encoder pick a per-column dictionary or
	// run-length representation when it is strictly smaller than the
	// raw column payload. Decoders accept such payloads regardless of
	// this option; raw payloads are unchanged on the wire.
	Encodings bool
}

// flateLevel maps Options.Level to the flate package's scale.
func flateLevel(l int) int {
	if l == 0 {
		return flate.BestSpeed
	}
	return l
}

var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// IsCompressed reports whether an encoded payload has the DEFLATE flag
// set (false for anything too short to be a valid payload). Executors
// use it to mirror the driver's compression choice on results.
func IsCompressed(data []byte) bool {
	return len(data) >= 3 && data[0] == magic0 && data[1] == magic1 && data[2]&flagCompressed != 0
}

// Encode serializes rows (which must match schema s) into a
// self-describing byte payload.
func Encode(s relation.Schema, rows []relation.Row, opts Options) ([]byte, error) {
	ncols := s.Len()
	for i, r := range rows {
		if len(r) != ncols {
			return nil, fmt.Errorf("colcodec: row %d has %d cells, schema has %d", i, len(r), ncols)
		}
	}

	encoded := opts.Encodings && len(rows) <= maxEncodedRows

	body := bufPool.Get().(*bytes.Buffer)
	body.Reset()
	defer bufPool.Put(body)
	var scratch [binary.MaxVarintLen64]byte
	for ci := 0; ci < ncols; ci++ {
		if encoded {
			encodeColumnSelect(body, rows, ci, scratch[:])
		} else {
			encodeColumn(body, rows, ci, scratch[:])
		}
	}

	out := bufPool.Get().(*bytes.Buffer)
	out.Reset()
	defer bufPool.Put(out)
	flags := byte(0)
	if opts.Compress {
		flags |= flagCompressed
	}
	if encoded {
		flags |= flagEncoded
	}
	out.WriteByte(magic0)
	out.WriteByte(magic1)
	out.WriteByte(flags)
	out.Write(scratch[:binary.PutUvarint(scratch[:], uint64(len(rows)))])
	out.Write(scratch[:binary.PutUvarint(scratch[:], uint64(ncols))])
	if opts.Compress {
		fw, err := flate.NewWriter(out, flateLevel(opts.Level))
		if err != nil {
			return nil, err
		}
		if _, err := fw.Write(body.Bytes()); err != nil {
			return nil, err
		}
		if err := fw.Close(); err != nil {
			return nil, err
		}
	} else {
		out.Write(body.Bytes())
	}
	// Copy out of the pooled buffer: the caller owns the result.
	res := make([]byte, out.Len())
	copy(res, out.Bytes())
	return res, nil
}

// classifyColumn makes one pass over a column: homogeneous (all
// non-null cells share a kind) or mixed, and whether any cell is null.
func classifyColumn(rows []relation.Row, ci int) (kind relation.Kind, mixed, nulls bool) {
	kind = relation.KindNull
	for _, r := range rows {
		k := r[ci].K
		if k == relation.KindNull {
			nulls = true
			continue
		}
		if kind == relation.KindNull {
			kind = k
		} else if kind != k {
			mixed = true
		}
	}
	return kind, mixed, nulls
}

func encodeColumn(w *bytes.Buffer, rows []relation.Row, ci int, scratch []byte) {
	kind, mixed, nulls := classifyColumn(rows, ci)

	tag := byte(kind)
	if mixed {
		tag = tagMixed
	}
	if nulls {
		tag |= tagHasNulls
	}
	w.WriteByte(tag)
	if nulls {
		writeBitmap(w, rows, func(r relation.Row) bool { return r[ci].K == relation.KindNull })
	}
	if !mixed && kind == relation.KindNull {
		return // all-null column: no payload
	}

	putUvarint := func(u uint64) { w.Write(scratch[:binary.PutUvarint(scratch, u)]) }
	putVarint := func(i int64) { w.Write(scratch[:binary.PutVarint(scratch, i)]) }
	putFloatBits := func(bits uint64) {
		binary.LittleEndian.PutUint64(scratch[:8], bits)
		w.Write(scratch[:8])
	}

	if mixed {
		for _, r := range rows {
			v := r[ci]
			if v.K == relation.KindNull {
				continue
			}
			w.WriteByte(byte(v.K))
			switch v.K {
			case relation.KindBool:
				w.WriteByte(byte(v.N & 1))
			case relation.KindInt:
				putVarint(v.I())
			case relation.KindFloat:
				putFloatBits(v.N)
			case relation.KindString, relation.KindBytes:
				putUvarint(uint64(len(v.S)))
				w.WriteString(v.S)
			}
		}
		return
	}

	switch kind {
	case relation.KindBool:
		// Pack one bit per NON-NULL cell (the decoder skips null slots
		// entirely), not one bit per row.
		var cur byte
		m := 0
		for _, r := range rows {
			if r[ci].K == relation.KindNull {
				continue
			}
			if r[ci].N != 0 {
				cur |= 1 << (m % 8)
			}
			m++
			if m%8 == 0 {
				w.WriteByte(cur)
				cur = 0
			}
		}
		if m%8 != 0 {
			w.WriteByte(cur)
		}
	case relation.KindInt:
		for _, r := range rows {
			if r[ci].K != relation.KindNull {
				putVarint(r[ci].I())
			}
		}
	case relation.KindFloat:
		for _, r := range rows {
			if r[ci].K != relation.KindNull {
				putFloatBits(r[ci].N)
			}
		}
	case relation.KindString, relation.KindBytes:
		for _, r := range rows {
			if r[ci].K != relation.KindNull {
				putUvarint(uint64(len(r[ci].S)))
			}
		}
		for _, r := range rows {
			if r[ci].K != relation.KindNull {
				w.WriteString(r[ci].S)
			}
		}
	}
}

// writeBitmap packs one bit per row (LSB-first within each byte).
func writeBitmap(w *bytes.Buffer, rows []relation.Row, bit func(relation.Row) bool) {
	var cur byte
	n := 0
	for _, r := range rows {
		if bit(r) {
			cur |= 1 << (n % 8)
		}
		n++
		if n%8 == 0 {
			w.WriteByte(cur)
			cur = 0
		}
	}
	if n%8 != 0 {
		w.WriteByte(cur)
	}
}

// Decode reconstructs the rows of a payload produced by Encode against
// the same schema. Every length and offset is bounds-checked; corrupt
// input yields an error, never a panic.
func Decode(s relation.Schema, data []byte) ([]relation.Row, error) {
	if len(data) < 3 || data[0] != magic0 || data[1] != magic1 {
		return nil, fmt.Errorf("colcodec: bad magic")
	}
	flags := data[2]
	if flags&^byte(flagCompressed|flagEncoded) != 0 {
		return nil, fmt.Errorf("colcodec: unknown flags %#x", flags)
	}
	encoded := flags&flagEncoded != 0
	rd := &reader{buf: data[3:]}
	nrows, err := rd.uvarint()
	if err != nil {
		return nil, fmt.Errorf("colcodec: row count: %w", err)
	}
	ncols, err := rd.uvarint()
	if err != nil {
		return nil, fmt.Errorf("colcodec: column count: %w", err)
	}
	if nrows > maxDecodeRows {
		return nil, fmt.Errorf("colcodec: row count %d exceeds limit", nrows)
	}
	if encoded && nrows > maxEncodedRows {
		return nil, fmt.Errorf("colcodec: encoded row count %d exceeds limit", nrows)
	}
	if int(ncols) != s.Len() {
		return nil, fmt.Errorf("colcodec: payload has %d columns, schema has %d", ncols, s.Len())
	}
	if ncols == 0 && nrows > maxZeroColRows {
		return nil, fmt.Errorf("colcodec: %d rows claimed with no columns", nrows)
	}
	if flags&flagCompressed != 0 {
		// Decompress under a hard output cap so a tiny adversarial
		// payload cannot inflate into gigabytes before any column-level
		// bounds check runs.
		limit := int64(len(data))*flateMaxRatio + 4096
		fr := flate.NewReader(bytes.NewReader(rd.rest()))
		body, err := io.ReadAll(io.LimitReader(fr, limit))
		if err != nil {
			return nil, fmt.Errorf("colcodec: decompress: %w", err)
		}
		_ = fr.Close()
		if int64(len(body)) >= limit {
			return nil, fmt.Errorf("colcodec: decompressed body exceeds %dx input", flateMaxRatio)
		}
		rd = &reader{buf: body}
	}

	n := int(nrows)
	// Plausibility gate before the big allocation: every well-formed raw
	// column costs at least one tag byte plus either a null bitmap or a
	// denser payload, so a body shorter than ncols*(1+ceil(n/8)) bytes
	// cannot be describing n rows — reject it before make() does. An
	// encoded column can legitimately be a handful of bytes (one RLE run
	// covers any row count), so those payloads only owe two bytes per
	// column here and lean on the maxEncodedRows cap above instead.
	if n > 0 {
		minBody := int64(ncols) * int64(1+(n+7)/8)
		if encoded {
			minBody = int64(ncols) * 2
		}
		if int64(len(rd.rest())) < minBody {
			return nil, fmt.Errorf("colcodec: body has %d bytes, %d rows need at least %d", len(rd.rest()), n, minBody)
		}
	}
	rows := make([]relation.Row, n)
	cells := make([]relation.Value, n*int(ncols)) // one backing array
	for i := range rows {
		rows[i] = cells[i*int(ncols) : (i+1)*int(ncols) : (i+1)*int(ncols)]
	}
	for ci := 0; ci < int(ncols); ci++ {
		var err error
		if encoded {
			err = decodeColumnSelect(rd, rows, ci, n)
		} else {
			err = decodeColumn(rd, rows, ci, n)
		}
		if err != nil {
			return nil, fmt.Errorf("colcodec: column %d: %w", ci, err)
		}
	}
	if len(rd.rest()) != 0 {
		return nil, fmt.Errorf("colcodec: %d trailing bytes", len(rd.rest()))
	}
	return rows, nil
}

func decodeColumn(rd *reader, rows []relation.Row, ci, n int) error {
	tag, err := rd.byte()
	if err != nil {
		return err
	}
	kind := tag & 0x0F
	hasNulls := tag&tagHasNulls != 0
	if kind != tagMixed && kind > byte(relation.KindBytes) {
		return fmt.Errorf("bad column tag %#x", tag)
	}

	var nulls []byte
	if hasNulls {
		nulls, err = rd.bytes((n + 7) / 8)
		if err != nil {
			return err
		}
	}
	isNull := func(i int) bool {
		return nulls != nil && nulls[i/8]&(1<<(i%8)) != 0
	}

	if kind == byte(relation.KindNull) {
		// The encoder always writes a null bitmap for an all-null column
		// of one or more rows; its absence is a crafted stream trying to
		// claim many rows for one tag byte.
		if !hasNulls && n > 0 {
			return fmt.Errorf("all-null column without null bitmap")
		}
		return nil // all cells stay the zero (null) Value
	}

	if kind == tagMixed {
		for i := 0; i < n; i++ {
			if isNull(i) {
				continue
			}
			k, err := rd.byte()
			if err != nil {
				return err
			}
			if k == byte(relation.KindNull) || k > byte(relation.KindBytes) {
				return fmt.Errorf("bad mixed cell kind %d", k)
			}
			v, err := rd.cell(relation.Kind(k))
			if err != nil {
				return err
			}
			rows[i][ci] = v
		}
		return nil
	}

	switch relation.Kind(kind) {
	case relation.KindBool:
		m := 0
		for i := 0; i < n; i++ {
			if !isNull(i) {
				m++
			}
		}
		bits, err := rd.bytes((m + 7) / 8)
		if err != nil {
			return err
		}
		j := 0
		for i := 0; i < n; i++ {
			if isNull(i) {
				continue
			}
			rows[i][ci] = relation.Bool(bits[j/8]&(1<<(j%8)) != 0)
			j++
		}
	case relation.KindInt:
		for i := 0; i < n; i++ {
			if isNull(i) {
				continue
			}
			x, err := rd.varint()
			if err != nil {
				return err
			}
			rows[i][ci] = relation.Int(x)
		}
	case relation.KindFloat:
		for i := 0; i < n; i++ {
			if isNull(i) {
				continue
			}
			f, err := rd.float()
			if err != nil {
				return err
			}
			rows[i][ci] = relation.Float(f)
		}
	case relation.KindString, relation.KindBytes:
		lens := make([]int, 0, n)
		total := 0
		for i := 0; i < n; i++ {
			if isNull(i) {
				continue
			}
			l, err := rd.uvarint()
			if err != nil {
				return err
			}
			if l > uint64(len(rd.rest())) {
				return fmt.Errorf("cell length %d exceeds remaining %d bytes", l, len(rd.rest()))
			}
			lens = append(lens, int(l))
			total += int(l)
		}
		arena, err := rd.bytes(total)
		if err != nil {
			return err
		}
		j, off := 0, 0
		for i := 0; i < n; i++ {
			if isNull(i) {
				continue
			}
			// string() copies: cells never alias the decode buffer.
			rows[i][ci] = relation.Value{K: relation.Kind(kind), S: string(arena[off : off+lens[j]])}
			off += lens[j]
			j++
		}
	}
	return nil
}

// reader is a bounds-checked cursor over a byte slice.
type reader struct {
	buf []byte
	off int
}

func (r *reader) rest() []byte { return r.buf[r.off:] }

func (r *reader) byte() (byte, error) {
	if r.off >= len(r.buf) {
		return 0, io.ErrUnexpectedEOF
	}
	b := r.buf[r.off]
	r.off++
	return b, nil
}

func (r *reader) bytes(n int) ([]byte, error) {
	if n < 0 || r.off+n > len(r.buf) {
		return nil, io.ErrUnexpectedEOF
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b, nil
}

func (r *reader) uvarint() (uint64, error) {
	u, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("bad uvarint")
	}
	r.off += n
	return u, nil
}

func (r *reader) varint() (int64, error) {
	i, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("bad varint")
	}
	r.off += n
	return i, nil
}

func (r *reader) float() (float64, error) {
	b, err := r.bytes(8)
	if err != nil {
		return 0, err
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b)), nil
}

// cell decodes one mixed-column cell payload of the given kind.
func (r *reader) cell(k relation.Kind) (relation.Value, error) {
	switch k {
	case relation.KindBool:
		b, err := r.byte()
		if err != nil {
			return relation.Value{}, err
		}
		return relation.Bool(b != 0), nil
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
	case relation.KindString, relation.KindBytes:
		l, err := r.uvarint()
		if err != nil {
			return relation.Value{}, err
		}
		b, err := r.bytes(int(l))
		if err != nil {
			return relation.Value{}, err
		}
		return relation.Value{K: k, S: string(b)}, nil
	default:
		return relation.Value{}, fmt.Errorf("bad cell kind %d", k)
	}
}
