package wio

import (
	"bytes"
	"fmt"
	"hash/fnv"
)

// Writable is the interface every key and value type implements, mirroring
// Hadoop's org.apache.hadoop.io.Writable. Implementations must be pointer
// types: the de-duplicating Encoder identifies repeated objects by pointer
// identity, and RecordReaders mutate values in place exactly like Hadoop's
// "reuse the same object for every record" contract.
type Writable interface {
	// WriteTo serializes the receiver's fields.
	WriteTo(w *Writer) error
	// ReadFields replaces the receiver's fields with deserialized data.
	ReadFields(r *Reader) error
}

// Comparable is a Writable with a total order, mirroring Hadoop's
// WritableComparable. Map output keys must implement it (or the job must
// configure an explicit sort comparator).
type Comparable interface {
	Writable
	// CompareTo returns a negative, zero, or positive number as the
	// receiver sorts before, equal to, or after other. It may panic if
	// other has a different dynamic type, as in Hadoop.
	CompareTo(other Writable) int
}

// Hashable is an optional fast path for partitioning. Types that do not
// implement it are hashed over their serialized form.
type Hashable interface {
	HashCode() uint32
}

// Comparator orders two deserialized writables. It is the unit of
// user-specified sorting and grouping comparators.
type Comparator interface {
	Compare(a, b Writable) int
}

// RawComparator additionally orders serialized representations without
// deserializing, the optimization Hadoop applies during its on-disk sorts.
type RawComparator interface {
	Comparator
	CompareRaw(a, b []byte) int
}

// KeyNormalizer is an optional Comparator extension that maps a key to a
// byte string ordered like the comparator: for any keys a and b,
// bytes.Compare of their normalized forms has the sign of Compare(a, b),
// and the forms are equal exactly when Compare returns 0. Engines use it
// to group equal keys by hashing instead of sorting every occurrence.
type KeyNormalizer interface {
	// AppendNormalizedKey appends k's normalized form to dst.
	AppendNormalizedKey(dst []byte, k Writable) []byte
}

// ComparatorFunc adapts a function to the Comparator interface.
type ComparatorFunc func(a, b Writable) int

// Compare implements Comparator.
func (f ComparatorFunc) Compare(a, b Writable) int { return f(a, b) }

// NaturalOrder is the default comparator: it delegates to the key's own
// CompareTo and panics (like Hadoop's WritableComparator) when the key type
// is not comparable.
type NaturalOrder struct{}

// Compare implements Comparator using the keys' natural order.
func (NaturalOrder) Compare(a, b Writable) int {
	ca, ok := a.(Comparable)
	if !ok {
		panic(fmt.Sprintf("wio: key type %T is not Comparable and no comparator was configured", a))
	}
	return ca.CompareTo(b)
}

// deserializingComparator lifts a Comparator over deserialized values into a
// RawComparator by decoding both operands. This is what Hadoop does when a
// key class registers no raw comparator; it is deliberately the slow path.
type deserializingComparator struct {
	cmp     Comparator
	factory func() Writable
}

// NewDeserializingComparator returns a RawComparator that decodes both
// serialized operands with fresh instances from factory and compares them
// with cmp.
func NewDeserializingComparator(cmp Comparator, factory func() Writable) RawComparator {
	return &deserializingComparator{cmp: cmp, factory: factory}
}

func (d *deserializingComparator) Compare(a, b Writable) int { return d.cmp.Compare(a, b) }

func (d *deserializingComparator) CompareRaw(a, b []byte) int {
	wa, wb := d.factory(), d.factory()
	if err := wa.ReadFields(NewReader(bytes.NewReader(a))); err != nil {
		panic(fmt.Sprintf("wio: raw compare decode: %v", err))
	}
	if err := wb.ReadFields(NewReader(bytes.NewReader(b))); err != nil {
		panic(fmt.Sprintf("wio: raw compare decode: %v", err))
	}
	return d.cmp.Compare(wa, wb)
}

// Marshal serializes a single writable to a fresh byte slice.
func Marshal(v Writable) ([]byte, error) {
	var buf bytes.Buffer
	if err := v.WriteTo(NewWriter(&buf)); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Unmarshal deserializes b into v, which must have the matching type.
func Unmarshal(b []byte, v Writable) error {
	return v.ReadFields(NewReader(bytes.NewReader(b)))
}

// HashCode returns a partitioning hash for v: the type's own HashCode when
// available, else an FNV-1a hash of the serialized form.
func HashCode(v Writable) uint32 {
	if h, ok := v.(Hashable); ok {
		return h.HashCode()
	}
	b, err := Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("wio: hashing %T: %v", v, err))
	}
	h := fnv.New32a()
	h.Write(b)
	return h.Sum32()
}

// Equal reports whether two writables have identical serialized forms. It is
// the engine's substitute for Java equals() when grouping values.
func Equal(a, b Writable) bool {
	ba, err := Marshal(a)
	if err != nil {
		return false
	}
	bb, err := Marshal(b)
	if err != nil {
		return false
	}
	return bytes.Equal(ba, bb)
}

// Clone deep-copies v through a serialization round trip. This is the cost
// M3R pays for every output pair of a mapper or reducer that has not
// declared ImmutableOutput (§4.1 of the paper); keeping it a full round trip
// rather than a type-specific fast path preserves that cost structure.
func Clone(v Writable) (Writable, error) {
	name, err := NameOf(v)
	if err != nil {
		return nil, err
	}
	b, err := Marshal(v)
	if err != nil {
		return nil, err
	}
	out, err := New(name)
	if err != nil {
		return nil, err
	}
	if err := Unmarshal(b, out); err != nil {
		return nil, err
	}
	return out, nil
}

// MustClone is Clone, panicking on error. Engines use it on pairs that have
// already been serialized once, so failure indicates a programming error.
func MustClone(v Writable) Writable {
	out, err := Clone(v)
	if err != nil {
		panic(fmt.Sprintf("wio: clone %T: %v", v, err))
	}
	return out
}

// Pair is a key/value pair as it moves through shuffle, cache and store.
type Pair struct {
	Key   Writable
	Value Writable
}
