// Package sqldb provides the in-memory analytical database that backs the
// GenEdit reproduction: a typed value model, tables, databases and the value
// profiling (top-k frequent values per column) the paper's pre-processing
// phase attaches to schema descriptions.
package sqldb

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the runtime value kinds. It is one byte wide so that,
// together with B, it packs into Value's first word.
type Kind int8

// Value kinds.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
)

func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INTEGER"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "TEXT"
	case KindBool:
		return "BOOLEAN"
	}
	return "UNKNOWN"
}

// Value is a single SQL scalar. The zero Value is NULL. K and B share the
// first word, keeping a Value at 40 bytes: tables, rows and results are
// slices of Values, so their size is most of the live heap.
type Value struct {
	K Kind
	B bool
	I int64
	F float64
	S string
}

// Null returns the NULL value.
func Null() Value { return Value{} }

// Int returns an integer value.
func Int(i int64) Value { return Value{K: KindInt, I: i} }

// Float returns a floating-point value.
func Float(f float64) Value { return Value{K: KindFloat, F: f} }

// Str returns a string value.
func Str(s string) Value { return Value{K: KindString, S: s} }

// Bool returns a boolean value.
func Bool(b bool) Value { return Value{K: KindBool, B: b} }

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.K == KindNull }

// IsNumeric reports whether v is an integer or float.
func (v Value) IsNumeric() bool { return v.K == KindInt || v.K == KindFloat }

// AsFloat converts v to float64. It reports false for non-numeric,
// non-parsable values.
func (v Value) AsFloat() (float64, bool) {
	switch v.K {
	case KindInt:
		return float64(v.I), true
	case KindFloat:
		return v.F, true
	case KindString:
		f, err := strconv.ParseFloat(strings.TrimSpace(v.S), 64)
		if err != nil {
			return 0, false
		}
		return f, true
	case KindBool:
		if v.B {
			return 1, true
		}
		return 0, true
	}
	return 0, false
}

// AsInt converts v to int64, truncating floats. It reports false for
// non-numeric values.
func (v Value) AsInt() (int64, bool) {
	switch v.K {
	case KindInt:
		return v.I, true
	case KindFloat:
		return int64(v.F), true
	case KindString:
		i, err := strconv.ParseInt(strings.TrimSpace(v.S), 10, 64)
		if err != nil {
			f, ferr := strconv.ParseFloat(strings.TrimSpace(v.S), 64)
			if ferr != nil {
				return 0, false
			}
			return int64(f), true
		}
		return i, true
	case KindBool:
		if v.B {
			return 1, true
		}
		return 0, true
	}
	return 0, false
}

// String renders the value the way result rows are compared and displayed.
func (v Value) String() string {
	switch v.K {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindFloat:
		return formatFloat(v.F)
	case KindString:
		return v.S
	case KindBool:
		if v.B {
			return "TRUE"
		}
		return "FALSE"
	}
	return "?"
}

// formatFloat renders floats with enough precision for equality comparison
// while keeping integral floats short ("3" not "3.000000").
func formatFloat(f float64) string {
	if math.IsInf(f, 1) {
		return "Inf"
	}
	if math.IsInf(f, -1) {
		return "-Inf"
	}
	if math.IsNaN(f) {
		return "NaN"
	}
	if f == math.Trunc(f) && math.Abs(f) < 1e15 {
		return strconv.FormatInt(int64(f), 10)
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// Equal reports SQL equality between two non-NULL values. Comparisons with
// NULL are the caller's concern (three-valued logic); Equal treats NULL as
// equal only to NULL, which is what result-set comparison needs.
func (v Value) Equal(o Value) bool {
	c, ok := Compare(v, o)
	return ok && c == 0
}

// Compare orders two values. It reports false when the values are not
// comparable under SQL rules (for this engine: NULL against anything
// non-NULL). Numeric kinds compare numerically; bools order false < true;
// everything else compares by rendered string.
func Compare(a, b Value) (int, bool) {
	if a.IsNull() || b.IsNull() {
		if a.IsNull() && b.IsNull() {
			return 0, true
		}
		return 0, false
	}
	if a.IsNumeric() && b.IsNumeric() {
		af, _ := a.AsFloat()
		bf, _ := b.AsFloat()
		switch {
		case af < bf:
			return -1, true
		case af > bf:
			return 1, true
		default:
			return 0, true
		}
	}
	if a.K == KindBool && b.K == KindBool {
		switch {
		case !a.B && b.B:
			return -1, true
		case a.B && !b.B:
			return 1, true
		default:
			return 0, true
		}
	}
	as, bs := a.String(), b.String()
	switch {
	case as < bs:
		return -1, true
	case as > bs:
		return 1, true
	default:
		return 0, true
	}
}

// CompareForSort orders values for ORDER BY with NULLs sorted first, so the
// result is a total order.
func CompareForSort(a, b Value) int {
	switch {
	case a.IsNull() && b.IsNull():
		return 0
	case a.IsNull():
		return -1
	case b.IsNull():
		return 1
	}
	c, _ := Compare(a, b)
	return c
}

// Key returns a canonical string key for grouping and DISTINCT; numerically
// equal ints and floats share a key.
func (v Value) Key() string {
	switch v.K {
	case KindNull:
		return "\x00N"
	case KindInt:
		return "#" + strconv.FormatInt(v.I, 10)
	case KindFloat:
		return "#" + formatFloat(v.F)
	case KindBool:
		if v.B {
			return "b1"
		}
		return "b0"
	default:
		return "s" + v.S
	}
}

// Cast converts a value to the named SQL type. Unknown types pass through
// unchanged, matching permissive warehouse behaviour.
func Cast(v Value, typ string) (Value, error) {
	if v.IsNull() {
		return Null(), nil
	}
	switch normalizeType(typ) {
	case "INTEGER":
		i, ok := v.AsInt()
		if !ok {
			return Null(), fmt.Errorf("cannot cast %q to INTEGER", v.String())
		}
		return Int(i), nil
	case "FLOAT":
		f, ok := v.AsFloat()
		if !ok {
			return Null(), fmt.Errorf("cannot cast %q to FLOAT", v.String())
		}
		return Float(f), nil
	case "TEXT":
		return Str(v.String()), nil
	case "BOOLEAN":
		switch v.K {
		case KindBool:
			return v, nil
		case KindInt:
			return Bool(v.I != 0), nil
		case KindFloat:
			return Bool(v.F != 0), nil
		default:
			s := strings.ToUpper(strings.TrimSpace(v.S))
			if s == "TRUE" || s == "1" {
				return Bool(true), nil
			}
			if s == "FALSE" || s == "0" {
				return Bool(false), nil
			}
			return Null(), fmt.Errorf("cannot cast %q to BOOLEAN", v.String())
		}
	default:
		return v, nil
	}
}

// normalizeType maps dialect spellings onto the engine's canonical types.
func normalizeType(typ string) string {
	switch strings.ToUpper(strings.Fields(typ)[0]) {
	case "INT", "INTEGER", "BIGINT", "SMALLINT", "TINYINT":
		return "INTEGER"
	case "FLOAT", "REAL", "DOUBLE", "DECIMAL", "NUMERIC", "NUMBER":
		return "FLOAT"
	case "TEXT", "VARCHAR", "CHAR", "STRING", "NVARCHAR", "DATE", "TIMESTAMP":
		return "TEXT"
	case "BOOLEAN", "BOOL":
		return "BOOLEAN"
	default:
		return strings.ToUpper(typ)
	}
}
