// Package trace implements the formal trace model of Sec. 2: raw traces
// are ordered byte sequences K_b of tuples k_b = (t, l, b_id, m_id,
// m_info); interpretation turns them into signal-instance sequences K_s
// of (t, ŝ, b_id) with ŝ = (v, s_id).
//
// The package also defines the canonical relational schemas these
// sequences take when handed to the engine, plus binary and CSV
// persistence for recorded traces.
package trace

import (
	"fmt"

	"ivnt/internal/relation"
)

// Protocol identifies the bus protocol a message was recorded from.
// The framework combines multiple protocols in one extraction run
// (Table 1 mixes CAN, K-LIN and SOME/IP).
type Protocol uint8

// Supported in-vehicle protocols.
const (
	ProtoCAN Protocol = iota
	ProtoLIN
	ProtoSOMEIP
)

// String returns the conventional protocol name.
func (p Protocol) String() string {
	switch p {
	case ProtoCAN:
		return "CAN"
	case ProtoLIN:
		return "LIN"
	case ProtoSOMEIP:
		return "SOME/IP"
	default:
		return fmt.Sprintf("proto(%d)", uint8(p))
	}
}

// ParseProtocol inverts String.
func ParseProtocol(s string) (Protocol, error) {
	switch s {
	case "CAN":
		return ProtoCAN, nil
	case "LIN":
		return ProtoLIN, nil
	case "SOME/IP", "SOMEIP":
		return ProtoSOMEIP, nil
	default:
		return 0, fmt.Errorf("trace: unknown protocol %q", s)
	}
}

// MsgInfo is m_info: the protocol-specific message fields needed for
// translation (e.g. the DLC in CAN).
type MsgInfo struct {
	Protocol Protocol
	// DLC is the data length code (CAN/LIN) or payload length
	// (SOME/IP).
	DLC uint8
}

// ByteTuple is one k_b = (t, l, b_id, m_id, m_info): a raw recorded
// message occurrence.
type ByteTuple struct {
	// T is the record timestamp in seconds from trace start.
	T float64
	// Payload is l, the message payload bytes.
	Payload []byte
	// Channel is b_id, e.g. "FC" for FA-CAN.
	Channel string
	// MsgID is m_id; for CAN it is the CAN identifier.
	MsgID uint32
	// Info is m_info.
	Info MsgInfo
}

// Trace is K_b, an ordered byte sequence.
type Trace struct {
	Tuples []ByteTuple
}

// Len returns |K_b|.
func (tr *Trace) Len() int { return len(tr.Tuples) }

// Append adds a tuple preserving order.
func (tr *Trace) Append(k ByteTuple) { tr.Tuples = append(tr.Tuples, k) }

// Duration returns the time span covered by the trace.
func (tr *Trace) Duration() float64 {
	if len(tr.Tuples) == 0 {
		return 0
	}
	return tr.Tuples[len(tr.Tuples)-1].T - tr.Tuples[0].T
}

// Canonical column names of the K_b relation.
const (
	ColT     = "t"
	ColBID   = "bid"
	ColMID   = "mid"
	ColL     = "l"
	ColProto = "proto"
	ColDLC   = "dlc"
)

// Canonical column names added by interpretation (the K_s relation).
const (
	ColSID  = "sid"
	ColV    = "v"
	ColLRel = "lrel"
)

// ByteSchema returns the relational schema of K_b.
func ByteSchema() relation.Schema {
	return relation.NewSchema(
		relation.Column{Name: ColT, Kind: relation.KindFloat},
		relation.Column{Name: ColBID, Kind: relation.KindString},
		relation.Column{Name: ColMID, Kind: relation.KindInt},
		relation.Column{Name: ColL, Kind: relation.KindBytes},
		relation.Column{Name: ColProto, Kind: relation.KindString},
		relation.Column{Name: ColDLC, Kind: relation.KindInt},
	)
}

// SignalSchema returns the relational schema of K_s rows: one
// interpreted signal instance per row.
func SignalSchema() relation.Schema {
	return relation.NewSchema(
		relation.Column{Name: ColT, Kind: relation.KindFloat},
		relation.Column{Name: ColSID, Kind: relation.KindString},
		relation.Column{Name: ColV, Kind: relation.KindNull},
		relation.Column{Name: ColBID, Kind: relation.KindString},
	)
}

// ToRelation converts K_b into its relational form, split into parts
// partitions.
func (tr *Trace) ToRelation(parts int) *relation.Relation {
	rows := make([]relation.Row, len(tr.Tuples))
	for i, k := range tr.Tuples {
		rows[i] = relation.Row{
			relation.Float(k.T),
			relation.Str(k.Channel),
			relation.Int(int64(k.MsgID)),
			relation.Bytes(k.Payload), // aliases: payloads are immutable once traced
			relation.Str(k.Info.Protocol.String()),
			relation.Int(int64(k.Info.DLC)),
		}
	}
	return relation.FromRows(ByteSchema(), rows).Repartition(parts)
}

// FromRelation reassembles a Trace from a K_b relation (inverse of
// ToRelation).
func FromRelation(rel *relation.Relation) (*Trace, error) {
	s := rel.Schema
	for _, c := range ByteSchema().Cols {
		if !s.Has(c.Name) {
			return nil, fmt.Errorf("trace: relation lacks column %q", c.Name)
		}
	}
	ti, bi, mi, li := s.MustIndex(ColT), s.MustIndex(ColBID), s.MustIndex(ColMID), s.MustIndex(ColL)
	pi, di := s.MustIndex(ColProto), s.MustIndex(ColDLC)
	tr := &Trace{Tuples: make([]ByteTuple, 0, rel.NumRows())}
	for _, part := range rel.Partitions {
		for _, r := range part {
			proto, err := ParseProtocol(r[pi].AsString())
			if err != nil {
				return nil, err
			}
			tr.Append(ByteTuple{
				T:       r[ti].AsFloat(),
				Channel: r[bi].AsString(),
				MsgID:   uint32(r[mi].AsInt()),
				Payload: r[li].B(), // read-only: aliases the cell's data
				Info:    MsgInfo{Protocol: proto, DLC: uint8(r[di].AsInt())},
			})
		}
	}
	return tr, nil
}

// SignalInstance is one interpreted occurrence (t, ŝ, b_id) with
// ŝ = (v, s_id).
type SignalInstance struct {
	T       float64
	SID     string
	V       relation.Value
	Channel string
}

// SignalsFromRelation extracts signal instances from a K_s-shaped
// relation.
func SignalsFromRelation(rel *relation.Relation) ([]SignalInstance, error) {
	s := rel.Schema
	for _, name := range []string{ColT, ColSID, ColV, ColBID} {
		if !s.Has(name) {
			return nil, fmt.Errorf("trace: relation lacks column %q", name)
		}
	}
	ti, si, vi, bi := s.MustIndex(ColT), s.MustIndex(ColSID), s.MustIndex(ColV), s.MustIndex(ColBID)
	out := make([]SignalInstance, 0, rel.NumRows())
	for _, part := range rel.Partitions {
		for _, r := range part {
			out = append(out, SignalInstance{
				T:       r[ti].AsFloat(),
				SID:     r[si].AsString(),
				V:       r[vi],
				Channel: r[bi].AsString(),
			})
		}
	}
	return out, nil
}

// Merge combines multiple time-ordered traces (e.g. recordings from
// separate loggers on different buses of the same drive) into one
// time-ordered trace. Inputs must each be sorted by T; ties keep the
// input order.
func Merge(traces ...*Trace) *Trace {
	total := 0
	for _, tr := range traces {
		if tr != nil {
			total += tr.Len()
		}
	}
	out := &Trace{Tuples: make([]ByteTuple, 0, total)}
	idx := make([]int, len(traces))
	for {
		best := -1
		var bestT float64
		for i, tr := range traces {
			if tr == nil || idx[i] >= tr.Len() {
				continue
			}
			t := tr.Tuples[idx[i]].T
			if best < 0 || t < bestT {
				best, bestT = i, t
			}
		}
		if best < 0 {
			return out
		}
		out.Append(traces[best].Tuples[idx[best]])
		idx[best]++
	}
}
