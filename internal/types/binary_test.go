package types

import (
	"bytes"
	"math"
	"testing"
	"time"
)

// binaryCases covers every concrete domain, the null of each, and the
// payload edges a scalar codec tends to get wrong.
func binaryCases() []Value {
	vals := []Value{
		String("plain"),
		String(""),
		String("NA"), // a literal, not the null
		CategoryValue("cat"),
		CategoryValue(""),
		IntValue(0),
		IntValue(math.MinInt64),
		IntValue(math.MaxInt64),
		FloatValue(-0.5),
		FloatValue(math.Inf(1)),
		FloatValue(math.Inf(-1)),
		FloatValue(math.NaN()), // reads as the Float null
		FloatValue(math.SmallestNonzeroFloat64),
		BoolValue(true),
		BoolValue(false),
		DatetimeValue(time.Date(2019, 1, 1, 12, 30, 45, 123456789, time.UTC)),
		DatetimeFromNanos(-1),
		{}, // the zero Value: the Object null
	}
	for d := Object; d < numDomains; d++ {
		vals = append(vals, NullValue(d))
	}
	return vals
}

func TestValueBinaryRoundTrip(t *testing.T) {
	var stream []byte
	for _, v := range binaryCases() {
		enc, err := v.MarshalBinary()
		if err != nil {
			t.Fatalf("%#v: marshal: %v", v, err)
		}
		var got Value
		if err := got.UnmarshalBinary(enc); err != nil {
			t.Fatalf("%#v: unmarshal: %v", v, err)
		}
		if !got.Equal(v) || got.Domain() != v.Domain() || got.IsNull() != v.IsNull() {
			t.Fatalf("round trip: got %#v, want %#v", got, v)
		}
		if v.Domain() == Datetime && !v.IsNull() && got.Time() != v.Time() {
			t.Fatalf("datetime lost precision: got %v, want %v", got.Time(), v.Time())
		}
		if err := got.UnmarshalBinary(append(enc, 0)); err == nil {
			t.Fatalf("%#v: trailing byte accepted", v)
		}
		stream, err = v.AppendBinary(stream)
		if err != nil {
			t.Fatal(err)
		}
	}
	// Values concatenate: DecodeValue consumes exactly one at a time.
	for _, want := range binaryCases() {
		got, rest, err := DecodeValue(stream)
		if err != nil {
			t.Fatalf("decode %#v from stream: %v", want, err)
		}
		if !got.Equal(want) || got.Domain() != want.Domain() {
			t.Fatalf("stream: got %#v, want %#v", got, want)
		}
		stream = rest
	}
	if len(stream) != 0 {
		t.Fatalf("%d bytes left after the stream", len(stream))
	}
	// Non-null composites have no binary form; malformed bytes fail.
	if _, err := CompositeValue(struct{}{}).MarshalBinary(); err == nil {
		t.Error("composite value marshaled")
	}
	for _, bad := range [][]byte{
		nil,
		{byte(Int)},
		{byte(Int), 0, 1, 2},
		{byte(Object), 0, 5, 0, 0, 0, 'a'},
		{byte(Unspecified), 1},
		{byte(numDomains), 1},
		{byte(Composite), 0},
	} {
		if _, _, err := DecodeValue(bad); err == nil {
			t.Errorf("DecodeValue(%v) accepted", bad)
		}
	}
}

// FuzzDecodeValue: arbitrary bytes must be rejected or decoded, never
// panic, and an accepted value must re-encode to bytes that decode to an
// Equal value and encode identically again.
func FuzzDecodeValue(f *testing.F) {
	for _, v := range binaryCases() {
		enc, err := v.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	f.Add([]byte{})
	f.Add([]byte{byte(Composite), 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		v, _, err := DecodeValue(data)
		if err != nil {
			return
		}
		enc, err := v.MarshalBinary()
		if err != nil {
			t.Fatalf("accepted value %#v does not re-encode: %v", v, err)
		}
		var v2 Value
		if err := v2.UnmarshalBinary(enc); err != nil {
			t.Fatalf("re-encoded value does not decode: %v", err)
		}
		if !v2.Equal(v) || v2.Domain() != v.Domain() {
			t.Fatalf("re-decoded %#v, want %#v", v2, v)
		}
		re, err := v2.MarshalBinary()
		if err != nil || !bytes.Equal(enc, re) {
			t.Fatalf("value not byte-stable: err=%v", err)
		}
	})
}
