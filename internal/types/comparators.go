package types

import (
	"bytes"
	"encoding/binary"
	"math"

	"m3r/internal/wio"
)

// Raw comparators for the standard types. They order serialized bytes
// without deserializing, the same optimization Hadoop's WritableComparator
// subclasses provide for its on-disk sorts. The Hadoop engine's spill merge
// uses these when available and falls back to a deserializing comparator
// otherwise.

// TextRawComparator orders serialized Text values lexicographically.
type TextRawComparator struct{}

// Compare implements wio.Comparator.
func (TextRawComparator) Compare(a, b wio.Writable) int { return a.(*Text).CompareTo(b) }

// CompareRaw implements wio.RawComparator. The serialized form is a uvarint
// length followed by the bytes; lengths compare consistently with contents
// only after skipping the prefix.
func (TextRawComparator) CompareRaw(a, b []byte) int {
	la, na := binary.Uvarint(a)
	lb, nb := binary.Uvarint(b)
	if na <= 0 || nb <= 0 {
		panic("types: corrupt serialized Text")
	}
	return bytes.Compare(a[na:na+int(la)], b[nb:nb+int(lb)])
}

// AppendNormalizedKey implements wio.KeyNormalizer: Text orders by its
// content bytes.
func (TextRawComparator) AppendNormalizedKey(dst []byte, k wio.Writable) []byte {
	return append(dst, k.(*Text).B...)
}

// IntRawComparator orders serialized IntWritables numerically.
type IntRawComparator struct{}

// Compare implements wio.Comparator.
func (IntRawComparator) Compare(a, b wio.Writable) int { return a.(*IntWritable).CompareTo(b) }

// CompareRaw implements wio.RawComparator over 4-byte big-endian two's
// complement values: flipping the sign bit yields unsigned comparability.
func (IntRawComparator) CompareRaw(a, b []byte) int {
	ua := binary.BigEndian.Uint32(a) ^ 0x80000000
	ub := binary.BigEndian.Uint32(b) ^ 0x80000000
	switch {
	case ua < ub:
		return -1
	case ua > ub:
		return 1
	}
	return 0
}

// AppendNormalizedKey implements wio.KeyNormalizer: big-endian with the
// sign bit flipped, as CompareRaw reads it.
func (IntRawComparator) AppendNormalizedKey(dst []byte, k wio.Writable) []byte {
	return binary.BigEndian.AppendUint32(dst, uint32(k.(*IntWritable).V)^0x80000000)
}

// LongRawComparator orders serialized LongWritables numerically.
type LongRawComparator struct{}

// Compare implements wio.Comparator.
func (LongRawComparator) Compare(a, b wio.Writable) int { return a.(*LongWritable).CompareTo(b) }

// CompareRaw implements wio.RawComparator.
func (LongRawComparator) CompareRaw(a, b []byte) int {
	ua := binary.BigEndian.Uint64(a) ^ 0x8000000000000000
	ub := binary.BigEndian.Uint64(b) ^ 0x8000000000000000
	switch {
	case ua < ub:
		return -1
	case ua > ub:
		return 1
	}
	return 0
}

// AppendNormalizedKey implements wio.KeyNormalizer: big-endian with the
// sign bit flipped, as CompareRaw reads it.
func (LongRawComparator) AppendNormalizedKey(dst []byte, k wio.Writable) []byte {
	return binary.BigEndian.AppendUint64(dst, uint64(k.(*LongWritable).V)^0x8000000000000000)
}

// DoubleRawComparator orders serialized DoubleWritables by the IEEE-754
// total order. A naive big-endian byte compare mis-orders every negative
// double (their sign bit makes them compare above all positives, and their
// magnitude bits grow downward); the total-order bit transform — flip all
// bits of negatives, flip only the sign bit of non-negatives — maps doubles
// onto unsigned-comparable keys:
//
//	-NaN < -Inf < … < -0 < +0 < … < +Inf < NaN
//
// Compare applies the same transform to the deserialized values so the
// in-memory (M3R) and raw (Hadoop spill) paths sort identically. This is
// Java's Double.compare order, which Hadoop's DoubleWritable.Comparator
// uses: it differs from CompareTo only on NaN (totally ordered here,
// unordered there) and on -0 < +0.
type DoubleRawComparator struct{}

// Compare implements wio.Comparator with the same total order CompareRaw
// applies to serialized bytes.
func (DoubleRawComparator) Compare(a, b wio.Writable) int {
	return compareUint64(
		totalOrderKey(math.Float64bits(a.(*DoubleWritable).V)),
		totalOrderKey(math.Float64bits(b.(*DoubleWritable).V)),
	)
}

// CompareRaw implements wio.RawComparator over the 8-byte big-endian
// IEEE-754 serialization.
func (DoubleRawComparator) CompareRaw(a, b []byte) int {
	return compareUint64(
		totalOrderKey(binary.BigEndian.Uint64(a)),
		totalOrderKey(binary.BigEndian.Uint64(b)),
	)
}

// AppendNormalizedKey implements wio.KeyNormalizer: the big-endian
// total-order key Compare and CompareRaw compare.
func (DoubleRawComparator) AppendNormalizedKey(dst []byte, k wio.Writable) []byte {
	return binary.BigEndian.AppendUint64(dst, totalOrderKey(math.Float64bits(k.(*DoubleWritable).V)))
}

// totalOrderKey maps IEEE-754 bits onto unsigned-comparable keys: negatives
// (sign bit set) are complemented so larger magnitudes sort lower,
// non-negatives get the sign bit set so they sort above all negatives.
func totalOrderKey(bits uint64) uint64 {
	if bits&(1<<63) != 0 {
		return ^bits
	}
	return bits | (1 << 63)
}

func compareUint64(a, b uint64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// RawComparatorFor returns a raw comparator specialized to the named key
// type when one exists, else nil. Engines consult this before falling back
// to deserializing comparison.
func RawComparatorFor(typeName string) wio.RawComparator {
	switch typeName {
	case TextName:
		return TextRawComparator{}
	case IntName:
		return IntRawComparator{}
	case LongName:
		return LongRawComparator{}
	case DoubleName:
		return DoubleRawComparator{}
	case PairName:
		return PairRawComparator{}
	}
	return nil
}
