package types_test

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"m3r/internal/types"
	"m3r/internal/wio"
)

func marshalDouble(t testing.TB, v float64) []byte {
	t.Helper()
	b, err := wio.Marshal(types.NewDouble(v))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// deserializingDoubleCmp is the slow-path comparator DoubleRawComparator
// replaces: decode both operands and use the natural order.
func deserializingDoubleCmp() wio.RawComparator {
	return wio.NewDeserializingComparator(wio.NaturalOrder{}, func() wio.Writable {
		return &types.DoubleWritable{}
	})
}

// TestDoubleRawMatchesDeserializing is the property test against the
// deserializing comparator: wherever CompareTo defines a strict order
// (everything except NaN operands and the -0/+0 tie, where CompareTo
// returns 0 but the total order refines), the raw comparator must agree.
func TestDoubleRawMatchesDeserializing(t *testing.T) {
	raw := types.DoubleRawComparator{}
	slow := deserializingDoubleCmp()
	f := func(abits, bbits uint64) bool {
		a, b := math.Float64frombits(abits), math.Float64frombits(bbits)
		if math.IsNaN(a) || math.IsNaN(b) {
			return true // CompareTo cannot order NaN; total order covered below
		}
		ba, bb := marshalDouble(t, a), marshalDouble(t, b)
		got := sign(raw.CompareRaw(ba, bb))
		want := sign(slow.CompareRaw(ba, bb))
		if want == 0 && a != b {
			// ±0: CompareTo ties, the total order refines to -0 < +0.
			return true
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// TestDoubleRawNegativeOrdering pins the defect the naive byte compare has:
// all-negative inputs must sort ascending, not by descending magnitude.
func TestDoubleRawNegativeOrdering(t *testing.T) {
	raw := types.DoubleRawComparator{}
	vals := []float64{-math.Inf(1), -1e308, -2.5, -1.0, -1e-300, math.Copysign(0, -1)}
	for i := 0; i+1 < len(vals); i++ {
		a, b := marshalDouble(t, vals[i]), marshalDouble(t, vals[i+1])
		if raw.CompareRaw(a, b) >= 0 {
			t.Errorf("%g should sort before %g", vals[i], vals[i+1])
		}
		if raw.CompareRaw(b, a) <= 0 {
			t.Errorf("%g should sort after %g", vals[i+1], vals[i])
		}
	}
}

// TestDoubleRawTotalOrder pins the IEEE-754 total order across the special
// values: -NaN < -Inf < negatives < -0 < +0 < positives < +Inf < NaN, with
// Compare (deserialized) agreeing with CompareRaw everywhere.
func TestDoubleRawTotalOrder(t *testing.T) {
	raw := types.DoubleRawComparator{}
	negNaN := math.Float64frombits(0xFFF8000000000001)
	ordered := []float64{
		negNaN,
		math.Inf(-1),
		-1e308,
		-1,
		-1e-300,
		math.Copysign(0, -1),
		0,
		1e-300,
		1,
		1e308,
		math.Inf(1),
		math.NaN(),
	}
	for i := range ordered {
		for j := range ordered {
			want := sign(i - j)
			bi, bj := marshalDouble(t, ordered[i]), marshalDouble(t, ordered[j])
			if got := sign(raw.CompareRaw(bi, bj)); got != want {
				t.Errorf("CompareRaw(%x, %x) = %d, want %d",
					math.Float64bits(ordered[i]), math.Float64bits(ordered[j]), got, want)
			}
			if got := sign(raw.Compare(types.NewDouble(ordered[i]), types.NewDouble(ordered[j]))); got != want {
				t.Errorf("Compare(%g, %g) = %d, want %d", ordered[i], ordered[j], got, want)
			}
		}
	}
}

// TestDoubleRawSortEquivalence sorts serialized doubles raw and values
// natively and checks the same sequence comes out.
func TestDoubleRawSortEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	vals := make([]float64, 300)
	for i := range vals {
		vals[i] = math.Float64frombits(rng.Uint64())
		if math.IsNaN(vals[i]) {
			vals[i] = rng.NormFloat64()
		}
	}
	ser := make([][]byte, len(vals))
	for i, v := range vals {
		ser[i] = marshalDouble(t, v)
	}
	raw := types.DoubleRawComparator{}
	slices.SortStableFunc(ser, raw.CompareRaw)
	slices.Sort(vals)
	for i := range vals {
		out := &types.DoubleWritable{}
		if err := wio.Unmarshal(ser[i], out); err != nil {
			t.Fatal(err)
		}
		if out.Get() != vals[i] && !(out.Get() == 0 && vals[i] == 0) {
			t.Fatalf("position %d: raw sort %g, native sort %g", i, out.Get(), vals[i])
		}
	}
}

func TestDoubleRawComparatorWired(t *testing.T) {
	if _, ok := types.RawComparatorFor(types.DoubleName).(types.DoubleRawComparator); !ok {
		t.Error("DoubleName should resolve to DoubleRawComparator")
	}
}

// TestNormalizedKeyOrderMatchesCompareRaw is the KeyNormalizer contract
// for every standard comparator that implements it: bytes.Compare of two
// normalized keys has the sign of CompareRaw over the serialized keys and
// of Compare over the keys, and normalized keys are equal exactly when the
// keys compare equal. The edge values cover -0 vs +0, NaN payloads of
// both signs, the integer extremes, empty Text, and Text prefixes.
func TestNormalizedKeyOrderMatchesCompareRaw(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var texts, ints, longs, doubles []wio.Writable
	for _, s := range []string{"", "a", "ab", "abc", "abd", "b", "\x00", "a\x00", "\xff", "\xff\xff", "é"} {
		texts = append(texts, types.NewText(s))
	}
	for _, v := range []int32{math.MinInt32, math.MinInt32 + 1, -256, -1, 0, 1, 255, 256, math.MaxInt32 - 1, math.MaxInt32} {
		ints = append(ints, types.NewInt(v))
	}
	for _, v := range []int64{math.MinInt64, math.MinInt64 + 1, math.MinInt32, -1, 0, 1, math.MaxInt32, math.MaxInt64 - 1, math.MaxInt64} {
		longs = append(longs, types.NewLong(v))
	}
	for _, bits := range []uint64{
		0x8000000000000000, 0, // -0, +0
		0x7ff8000000000000, 0x7ff8000000000001, 0x7ff0000000000001, 0x7fffffffffffffff, // NaN payloads
		0xfff8000000000000, 0xfff0000000000001, 0xffffffffffffffff, // negative NaNs
		0x7ff0000000000000, 0xfff0000000000000, // ±Inf
		1, 0x8000000000000001, // ±smallest denormal
		0x3ff8000000000000, 0xbff8000000000000, // ±1.5
	} {
		doubles = append(doubles, types.NewDouble(math.Float64frombits(bits)))
	}
	for i := 0; i < 40; i++ {
		b := make([]byte, rng.Intn(5))
		for j := range b {
			b[j] = []byte{0, 'a', 'b', 0xff}[rng.Intn(4)]
		}
		texts = append(texts, &types.Text{B: b})
		ints = append(ints, types.NewInt(int32(rng.Uint32())))
		longs = append(longs, types.NewLong(int64(rng.Uint64())))
		doubles = append(doubles, types.NewDouble(math.Float64frombits(rng.Uint64())))
	}
	for _, tc := range []struct {
		cmp  wio.RawComparator
		keys []wio.Writable
	}{
		{types.TextRawComparator{}, texts},
		{types.IntRawComparator{}, ints},
		{types.LongRawComparator{}, longs},
		{types.DoubleRawComparator{}, doubles},
	} {
		norm, ok := tc.cmp.(wio.KeyNormalizer)
		if !ok {
			t.Fatalf("%T does not implement wio.KeyNormalizer", tc.cmp)
		}
		for _, a := range tc.keys {
			for _, b := range tc.keys {
				ab, err := wio.Marshal(a)
				if err != nil {
					t.Fatal(err)
				}
				bb, err := wio.Marshal(b)
				if err != nil {
					t.Fatal(err)
				}
				got := sign(bytes.Compare(norm.AppendNormalizedKey(nil, a), norm.AppendNormalizedKey(nil, b)))
				if raw := sign(tc.cmp.CompareRaw(ab, bb)); got != raw {
					t.Errorf("%T: %v vs %v: normalized order %d, CompareRaw %d", tc.cmp, a, b, got, raw)
				}
				if c := sign(tc.cmp.Compare(a, b)); got != c {
					t.Errorf("%T: %v vs %v: normalized order %d, Compare %d", tc.cmp, a, b, got, c)
				}
			}
		}
	}
}
