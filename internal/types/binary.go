package types

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Binary form of a scalar: a domain byte, a null byte, then the payload —
// nothing for nulls, a u32 length and the bytes for Object/Category, eight
// little-endian bytes for Int/Datetime (Unix nanoseconds) and Float (IEEE-754
// bits), one byte for Bool. Column labels inside encoded frames, plan
// operands, group-key exemplars and sort bounds all travel in this form;
// gob picks it up through MarshalBinary/UnmarshalBinary. Non-null Composite
// values have no binary form: their payload is an in-process object.

// AppendBinary appends v's binary form to buf (encoding.BinaryAppender).
func (v Value) AppendBinary(buf []byte) ([]byte, error) {
	d := v.Domain()
	if v.IsNull() {
		return append(buf, byte(d), 1), nil
	}
	buf = append(buf, byte(d), 0)
	switch d {
	case Object, Category:
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(v.s)))
		return append(buf, v.s...), nil
	case Int, Datetime:
		return binary.LittleEndian.AppendUint64(buf, uint64(v.i)), nil
	case Float:
		return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.f)), nil
	case Bool:
		return append(buf, boolByte(v.b)), nil
	default:
		return nil, fmt.Errorf("types: no binary form for %v value", d)
	}
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (v Value) MarshalBinary() ([]byte, error) { return v.AppendBinary(nil) }

// UnmarshalBinary implements encoding.BinaryUnmarshaler; data must hold
// exactly one value.
func (v *Value) UnmarshalBinary(data []byte) error {
	x, rest, err := DecodeValue(data)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return fmt.Errorf("types: %d trailing bytes after value", len(rest))
	}
	*v = x
	return nil
}

// DecodeValue decodes one value off buf, returning it and the remaining
// bytes. It is AppendBinary's inverse.
func DecodeValue(buf []byte) (Value, []byte, error) {
	if len(buf) < 2 {
		return Value{}, nil, fmt.Errorf("types: value truncated")
	}
	d, isNull := Domain(buf[0]), buf[1] == 1
	buf = buf[2:]
	if !d.Valid() {
		return Value{}, nil, fmt.Errorf("types: unknown value domain %d", d)
	}
	if isNull {
		return NullValue(d), buf, nil
	}
	switch d {
	case Object, Category:
		if len(buf) < 4 {
			return Value{}, nil, fmt.Errorf("types: value truncated (string length)")
		}
		l := int(binary.LittleEndian.Uint32(buf))
		buf = buf[4:]
		if len(buf) < l {
			return Value{}, nil, fmt.Errorf("types: value truncated (string)")
		}
		return Value{dom: d, s: string(buf[:l])}, buf[l:], nil
	case Int, Datetime:
		if len(buf) < 8 {
			return Value{}, nil, fmt.Errorf("types: value truncated (int)")
		}
		return Value{dom: d, i: int64(binary.LittleEndian.Uint64(buf))}, buf[8:], nil
	case Float:
		if len(buf) < 8 {
			return Value{}, nil, fmt.Errorf("types: value truncated (float)")
		}
		return FloatValue(math.Float64frombits(binary.LittleEndian.Uint64(buf))), buf[8:], nil
	case Bool:
		if len(buf) < 1 {
			return Value{}, nil, fmt.Errorf("types: value truncated (bool)")
		}
		return BoolValue(buf[0] == 1), buf[1:], nil
	default:
		return Value{}, nil, fmt.Errorf("types: no binary form for %v value", d)
	}
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}
