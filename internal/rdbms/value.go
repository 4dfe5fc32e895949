// Package rdbms is a from-scratch miniature relational engine: slotted
// pages, a buffer pool, heap files, B+tree indexes, a write-ahead log with
// crash recovery, strict two-phase-locking transactions, and a SQL subset
// (DDL, INSERT/UPDATE/DELETE, SELECT with filters, joins, grouping,
// ordering). It is the "RDBMS" box in the paper's storage layer: the
// final extracted structure lives here so that many users can edit it
// concurrently with correct concurrency control.
package rdbms

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Type enumerates column types.
type Type uint8

const (
	TNull Type = iota
	TInt
	TFloat
	TString
	TBool
)

func (t Type) String() string {
	switch t {
	case TInt:
		return "INT"
	case TFloat:
		return "FLOAT"
	case TString:
		return "STRING"
	case TBool:
		return "BOOL"
	case TNull:
		return "NULL"
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// ParseType parses a SQL type name.
func ParseType(s string) (Type, error) {
	switch strings.ToUpper(s) {
	case "INT", "INTEGER", "BIGINT":
		return TInt, nil
	case "FLOAT", "DOUBLE", "REAL":
		return TFloat, nil
	case "STRING", "TEXT", "VARCHAR":
		return TString, nil
	case "BOOL", "BOOLEAN":
		return TBool, nil
	}
	return TNull, fmt.Errorf("rdbms: unknown type %q", s)
}

// Value is a dynamically typed SQL value.
type Value struct {
	Type Type
	I    int64
	F    float64
	S    string
	B    bool
}

// Convenience constructors.
func NewInt(i int64) Value     { return Value{Type: TInt, I: i} }
func NewFloat(f float64) Value { return Value{Type: TFloat, F: f} }
func NewString(s string) Value { return Value{Type: TString, S: s} }
func NewBool(b bool) Value     { return Value{Type: TBool, B: b} }
func Null() Value              { return Value{Type: TNull} }
func (v Value) IsNull() bool   { return v.Type == TNull }

// AsFloat coerces numeric values to float64.
func (v Value) AsFloat() (float64, bool) {
	switch v.Type {
	case TInt:
		return float64(v.I), true
	case TFloat:
		return v.F, true
	}
	return 0, false
}

// String renders the value for display.
func (v Value) String() string {
	switch v.Type {
	case TNull:
		return "NULL"
	case TInt:
		return strconv.FormatInt(v.I, 10)
	case TFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case TString:
		return v.S
	case TBool:
		if v.B {
			return "true"
		}
		return "false"
	}
	return "?"
}

// Compare orders two values. NULL sorts before everything; numeric types
// compare by value across TInt/TFloat; otherwise types must match.
// It returns -1, 0, or +1, and false when the values are incomparable.
func Compare(a, b Value) (int, bool) {
	if a.Type == TNull || b.Type == TNull {
		switch {
		case a.Type == TNull && b.Type == TNull:
			return 0, true
		case a.Type == TNull:
			return -1, true
		default:
			return 1, true
		}
	}
	if af, ok := a.AsFloat(); ok {
		if bf, ok2 := b.AsFloat(); ok2 {
			switch {
			case af < bf:
				return -1, true
			case af > bf:
				return 1, true
			default:
				return 0, true
			}
		}
		return 0, false
	}
	if a.Type != b.Type {
		return 0, false
	}
	switch a.Type {
	case TString:
		return strings.Compare(a.S, b.S), true
	case TBool:
		switch {
		case a.B == b.B:
			return 0, true
		case !a.B:
			return -1, true
		default:
			return 1, true
		}
	}
	return 0, false
}

// Equal reports comparable equality.
func Equal(a, b Value) bool {
	c, ok := Compare(a, b)
	return ok && c == 0
}

// encodeValue appends a self-describing encoding of v to buf.
func encodeValue(buf []byte, v Value) []byte {
	buf = append(buf, byte(v.Type))
	switch v.Type {
	case TNull:
	case TInt:
		var tmp [8]byte
		binary.LittleEndian.PutUint64(tmp[:], uint64(v.I))
		buf = append(buf, tmp[:]...)
	case TFloat:
		var tmp [8]byte
		binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(v.F))
		buf = append(buf, tmp[:]...)
	case TString:
		var tmp [4]byte
		binary.LittleEndian.PutUint32(tmp[:], uint32(len(v.S)))
		buf = append(buf, tmp[:]...)
		buf = append(buf, v.S...)
	case TBool:
		if v.B {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	return buf
}

// decodeValue reads one value from buf, returning it and the bytes consumed.
func decodeValue(buf []byte) (Value, int, error) {
	if len(buf) < 1 {
		return Value{}, 0, fmt.Errorf("rdbms: empty value encoding")
	}
	t := Type(buf[0])
	switch t {
	case TNull:
		return Null(), 1, nil
	case TInt:
		if len(buf) < 9 {
			return Value{}, 0, fmt.Errorf("rdbms: short int encoding")
		}
		return NewInt(int64(binary.LittleEndian.Uint64(buf[1:9]))), 9, nil
	case TFloat:
		if len(buf) < 9 {
			return Value{}, 0, fmt.Errorf("rdbms: short float encoding")
		}
		return NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(buf[1:9]))), 9, nil
	case TString:
		if len(buf) < 5 {
			return Value{}, 0, fmt.Errorf("rdbms: short string header")
		}
		n := int(binary.LittleEndian.Uint32(buf[1:5]))
		if len(buf) < 5+n {
			return Value{}, 0, fmt.Errorf("rdbms: short string body")
		}
		return NewString(string(buf[5 : 5+n])), 5 + n, nil
	case TBool:
		if len(buf) < 2 {
			return Value{}, 0, fmt.Errorf("rdbms: short bool encoding")
		}
		return NewBool(buf[1] == 1), 2, nil
	}
	return Value{}, 0, fmt.Errorf("rdbms: bad type tag %d", buf[0])
}

// Tuple is an ordered list of values conforming to a table schema.
type Tuple []Value

// EncodeTuple serializes a tuple.
func EncodeTuple(t Tuple) []byte {
	var buf []byte
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(t)))
	buf = append(buf, hdr[:]...)
	for _, v := range t {
		buf = encodeValue(buf, v)
	}
	return buf
}

// DecodeTuple parses a tuple serialized by EncodeTuple. Every value
// encodes to at least one byte, so the result's capacity is capped by
// the bytes after the header: a header claiming more columns than the
// input can hold fails without allocating for them.
func DecodeTuple(buf []byte) (Tuple, error) {
	n, err := tupleHeader(buf)
	if err != nil {
		return nil, err
	}
	out := make(Tuple, 0, min(n, len(buf)-4))
	off := 4
	for i := 0; i < n; i++ {
		v, used, err := decodeValue(buf[off:])
		if err != nil {
			return nil, err
		}
		out = append(out, v)
		off += used
	}
	return out, nil
}

// colSet marks the columns a read decodes, by position; nil marks every
// column. Scans derive it from the query they serve (see readCols) and
// never take it from configuration.
type colSet []bool

// noCols marks no column: a read that needs only row existence.
var noCols = colSet{}

func (c colSet) has(i int) bool { return c == nil || (i < len(c) && c[i]) }

// none reports whether the set marks no column at all.
func (c colSet) none() bool {
	if c == nil {
		return false
	}
	for _, m := range c {
		if m {
			return false
		}
	}
	return true
}

// mask returns t with the columns c does not mark zeroed: t itself when
// c marks every column, else a copy.
func (c colSet) mask(t Tuple) Tuple {
	if c == nil {
		return t
	}
	out := make(Tuple, len(t))
	for i, v := range t {
		if c.has(i) {
			out[i] = v
		}
	}
	return out
}

// skipValue returns the encoded length of the value at the front of buf.
// It rejects exactly what decodeValue rejects, without building a value.
func skipValue(buf []byte) (int, error) {
	if len(buf) < 1 {
		return 0, fmt.Errorf("rdbms: empty value encoding")
	}
	var n int
	switch Type(buf[0]) {
	case TNull:
		n = 1
	case TInt, TFloat:
		n = 9
	case TString:
		if len(buf) < 5 {
			return 0, fmt.Errorf("rdbms: short string header")
		}
		n = 5 + int(binary.LittleEndian.Uint32(buf[1:5]))
	case TBool:
		n = 2
	default:
		return 0, fmt.Errorf("rdbms: bad type tag %d", buf[0])
	}
	if len(buf) < n {
		return 0, fmt.Errorf("rdbms: short %s encoding", Type(buf[0]))
	}
	return n, nil
}

// tupleHeader checks a tuple encoding's header and returns the arity it
// declares.
func tupleHeader(buf []byte) (int, error) {
	if len(buf) < 4 {
		return 0, fmt.Errorf("rdbms: short tuple header")
	}
	n := int(binary.LittleEndian.Uint32(buf[:4]))
	if n > 1<<20 {
		return 0, fmt.Errorf("rdbms: implausible tuple arity %d", n)
	}
	return n, nil
}

// decodeTupleCols is DecodeTuple restricted to the columns in cols: it
// extends dst by the tuple's arity, decoding marked columns and leaving
// unmarked ones as the zero Value (NULL) after validating and skipping
// their bytes. It accepts and rejects exactly the inputs DecodeTuple
// does. Appending to a caller's slab is what lets a page decode into one
// allocation. A marked string column equal to the same column of prev
// (the row decoded before, or nil) shares prev's string instead of
// allocating a copy: rows of one entity sit together on a page.
func decodeTupleCols(dst []Value, buf []byte, cols colSet, prev Tuple) ([]Value, error) {
	n, err := tupleHeader(buf)
	if err != nil {
		return dst, err
	}
	off := 4
	for i := 0; i < n; i++ {
		if !cols.has(i) {
			used, err := skipValue(buf[off:])
			if err != nil {
				return dst, err
			}
			dst = append(dst, Value{})
			off += used
			continue
		}
		if i < len(prev) && prev[i].Type == TString {
			if used, ok := sameString(buf[off:], prev[i].S); ok {
				dst = append(dst, prev[i])
				off += used
				continue
			}
		}
		v, used, err := decodeValue(buf[off:])
		if err != nil {
			return dst, err
		}
		dst = append(dst, v)
		off += used
	}
	return dst, nil
}

// sameString reports whether buf starts with the encoding of the string
// s, and the encoding's length.
func sameString(buf []byte, s string) (int, bool) {
	if len(buf) < 5 || Type(buf[0]) != TString {
		return 0, false
	}
	n := int(binary.LittleEndian.Uint32(buf[1:5]))
	if len(buf)-5 < n || string(buf[5:5+n]) != s {
		return 0, false
	}
	return 5 + n, true
}

// tupleArity validates buf as DecodeTuple does and returns the tuple's
// arity, decoding no value: the decoder of reads that mark no column.
func tupleArity(buf []byte) (int, error) {
	n, err := tupleHeader(buf)
	if err != nil {
		return 0, err
	}
	off := 4
	for i := 0; i < n; i++ {
		used, err := skipValue(buf[off:])
		if err != nil {
			return 0, err
		}
		off += used
	}
	return n, nil
}

// Clone returns a deep copy of the tuple.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// String renders the tuple as (a, b, c).
func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}
