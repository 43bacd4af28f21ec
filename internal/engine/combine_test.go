package engine_test

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"m3r/internal/conf"
	"m3r/internal/counters"
	"m3r/internal/engine"
	"m3r/internal/mapred"
	"m3r/internal/types"
	"m3r/internal/wio"
)

// Combiners for the hash-vs-sort equivalence tests. Every value is the
// pair's arrival index, and each combiner folds the values it reads in
// order, so a path that reorders a group's values changes the output.
const (
	orderFoldCombiner = "test.combine.OrderFold"
	readSomeCombiner  = "test.combine.ReadSome"
	reusingCombiner   = "test.combine.Reusing"
	failingCombiner   = "test.combine.Failing"
	firstByteGrouper  = "test.combine.FirstByteGrouper"
)

var equivalenceCombiners = []string{orderFoldCombiner, readSomeCombiner, reusingCombiner, failingCombiner}

func init() {
	mapred.RegisterReducer(orderFoldCombiner, func() mapred.Reducer { return &orderFold{} })
	mapred.RegisterReducer(readSomeCombiner, func() mapred.Reducer { return &readSome{} })
	mapred.RegisterReducer(reusingCombiner, func() mapred.Reducer { return &reusing{} })
	mapred.RegisterReducer(failingCombiner, func() mapred.Reducer { return &failing{} })
	mapred.RegisterComparator(firstByteGrouper, func() wio.Comparator {
		return wio.ComparatorFunc(func(a, b wio.Writable) int {
			return bytes.Compare(a.(*types.Text).B[:min(1, len(a.(*types.Text).B))],
				b.(*types.Text).B[:min(1, len(b.(*types.Text).B))])
		})
	})
}

// foldValues reads up to limit values (all of them when limit < 0) and
// folds their arrival indexes in order.
func foldValues(values mapred.ValueIterator, limit int) (h int64, n int) {
	h = 17
	for limit < 0 || n < limit {
		v, ok := values.Next()
		if !ok {
			break
		}
		h = h*31 + v.(*types.LongWritable).V
		n++
	}
	return h, n
}

// orderFold reads every value and emits the fold under the group's key.
type orderFold struct{ mapred.Base }

func (*orderFold) AssertImmutableOutput() {}

func (*orderFold) Reduce(key wio.Writable, values mapred.ValueIterator, out mapred.OutputCollector, _ mapred.Reporter) error {
	h, _ := foldValues(values, -1)
	return out.Collect(key, types.NewLong(h))
}

// readSome reads none, one or two values of a group, by group ordinal; the
// combine step must still count the values it left unread.
type readSome struct {
	mapred.Base
	groups int
}

func (*readSome) AssertImmutableOutput() {}

func (c *readSome) Reduce(key wio.Writable, values mapred.ValueIterator, out mapred.OutputCollector, _ mapred.Reporter) error {
	h, _ := foldValues(values, c.groups%3)
	c.groups++
	return out.Collect(key, types.NewLong(h))
}

// reusing carries no ImmutableOutput marker and reuses its output value
// after collecting it, as Hadoop allows; Combine must clone its output.
type reusing struct {
	mapred.Base
	v types.LongWritable
}

func (c *reusing) Reduce(key wio.Writable, values mapred.ValueIterator, out mapred.OutputCollector, _ mapred.Reporter) error {
	h, n := foldValues(values, -1)
	c.v.V = h
	if err := out.Collect(key, &c.v); err != nil {
		return err
	}
	c.v.V = int64(n)
	if err := out.Collect(key, &c.v); err != nil {
		return err
	}
	c.v.V = -1
	return nil
}

// failing reads a group's first value and fails on any that is 4 mod 5.
type failing struct{ mapred.Base }

func (*failing) AssertImmutableOutput() {}

func (*failing) Reduce(key wio.Writable, values mapred.ValueIterator, out mapred.OutputCollector, _ mapred.Reporter) error {
	v, ok := values.Next()
	if ok && v.(*types.LongWritable).V%5 == 4 {
		return fmt.Errorf("combiner rejects value %d", v.(*types.LongWritable).V)
	}
	h, _ := foldValues(values, -1)
	return out.Collect(key, types.NewLong(h))
}

var combineKeyClasses = []string{types.TextName, types.IntName, types.LongName, types.DoubleName}

// combineJob resolves a job with the given map output key class and
// combiner; values are LongWritables.
func combineJob(t testing.TB, keyClass, combiner string) *engine.ResolvedJob {
	t.Helper()
	job := conf.NewJob()
	job.SetMapperClass(mapred.IdentityMapperName)
	job.SetReducerClass(mapred.IdentityReducerName)
	job.SetMapOutputKeyClass(keyClass)
	job.SetMapOutputValueClass(types.LongName)
	job.SetCombinerClass(combiner)
	rj, err := engine.Resolve(job)
	if err != nil {
		t.Fatal(err)
	}
	return rj
}

var (
	intEdges  = []int32{math.MinInt32, math.MinInt32 + 1, -1, 0, 1, math.MaxInt32 - 1, math.MaxInt32}
	longEdges = []int64{math.MinInt64, math.MinInt64 + 1, math.MinInt32, -1, 0, 1, math.MaxInt32, math.MaxInt64}
	// doubleEdges covers the total order's corners: both zeros, NaNs with
	// distinct payloads and signs, infinities, denormals.
	doubleEdges = []float64{
		math.Copysign(0, -1), 0,
		math.Float64frombits(0x7ff8000000000000), math.Float64frombits(0x7ff0000000000001),
		math.Float64frombits(0xfff8000000000000), math.Float64frombits(0x7fffffffffffffff),
		math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.MaxFloat64, -math.MaxFloat64, 1.5, -1.5,
	}
)

// drawPairs decodes a buffer of up to 512 pairs with keys of the given
// class from data. Keys come from small domains — Text of at most three
// letters over a three-letter alphabet, integers near zero, the edge
// values above — so buffers repeat keys and Text keys prefix one another.
// Each value is the pair's arrival index.
func drawPairs(keyClass string, data []byte) []wio.Pair {
	var pairs []wio.Pair
	for i := 0; i < len(data) && len(pairs) < 512; i++ {
		b := data[i]
		var k wio.Writable
		switch keyClass {
		case types.TextName:
			s := []byte{}
			for n := int(b % 4); n > 0 && i+1 < len(data); n-- {
				i++
				s = append(s, 'a'+data[i]%3)
			}
			k = &types.Text{B: s}
		case types.IntName:
			if b < 32 {
				k = types.NewInt(intEdges[int(b)%len(intEdges)])
			} else {
				k = types.NewInt(int32(int8(b)) >> 2)
			}
		case types.LongName:
			if b < 32 {
				k = types.NewLong(longEdges[int(b)%len(longEdges)])
			} else {
				k = types.NewLong(int64(int8(b)) >> 2)
			}
		case types.DoubleName:
			if b < 64 {
				k = types.NewDouble(doubleEdges[int(b)%len(doubleEdges)])
			} else {
				k = types.NewDouble(float64(int8(b)>>3) / 4)
			}
		}
		pairs = append(pairs, wio.Pair{Key: k, Value: types.NewLong(int64(len(pairs)))})
	}
	return pairs
}

// requireCombineEquivalent runs Combine's hash path and its stable-sort
// path over copies of pairs and requires identical outputs — the same
// bytes, and for marked combiners the same key objects — identical errors
// and identical combine counters.
func requireCombineEquivalent(t *testing.T, rj *engine.ResolvedJob, pairs []wio.Pair) {
	t.Helper()
	if !engine.HashGroups(rj) {
		t.Fatalf("key class %s does not take the hash path", rj.Job.MapOutputKeyClass())
	}
	ctxH := engine.NewTaskContext(rj.Job, "hash", nil)
	ctxS := engine.NewTaskContext(rj.Job, "sort", nil)
	gotH, errH := engine.Combine(rj, slices.Clone(pairs), ctxH)
	gotS, errS := engine.CombineSorted(rj, slices.Clone(pairs), ctxS)
	if fmt.Sprint(errH) != fmt.Sprint(errS) {
		t.Fatalf("errors differ: hash %v, sort %v", errH, errS)
	}
	for _, name := range []string{counters.CombineInputRecords, counters.CombineOutputRecords} {
		h, s := ctxH.Counters.Value(counters.TaskGroup, name), ctxS.Counters.Value(counters.TaskGroup, name)
		if h != s {
			t.Fatalf("%s: hash %d, sort %d", name, h, s)
		}
	}
	if len(gotH) != len(gotS) {
		t.Fatalf("hash path emitted %d pairs, sort path %d", len(gotH), len(gotS))
	}
	for i := range gotH {
		hk, hv := pairBytes(t, gotH[i])
		sk, sv := pairBytes(t, gotS[i])
		if !bytes.Equal(hk, sk) || !bytes.Equal(hv, sv) {
			t.Fatalf("pair %d: hash %v=%v, sort %v=%v", i, gotH[i].Key, gotH[i].Value, gotS[i].Key, gotS[i].Value)
		}
		if rj.CombineImmutable && gotH[i].Key != gotS[i].Key {
			t.Fatalf("pair %d: the combiner saw a different key object than the first-arriving one", i)
		}
	}
}

// FuzzCombineEquivalence holds the hash-grouped combine against the
// stable-sort combine over drawn buffers, for every normalizable key class
// and every test combiner.
func FuzzCombineEquivalence(f *testing.F) {
	seed := []byte("the quick brown fox jumps over the lazy dog \x00\x01\x02\x10\x1f\x20\x3f\x40\x80\xff")
	for kc := range combineKeyClasses {
		for c := range equivalenceCombiners {
			f.Add(uint8(kc), uint8(c), seed)
		}
	}
	f.Fuzz(func(t *testing.T, kc, c uint8, data []byte) {
		keyClass := combineKeyClasses[int(kc)%len(combineKeyClasses)]
		rj := combineJob(t, keyClass, equivalenceCombiners[int(c)%len(equivalenceCombiners)])
		requireCombineEquivalent(t, rj, drawPairs(keyClass, data))
	})
}

// TestCombineEquivalenceRandom runs the fuzz property over seeded random
// buffers on every plain test run.
func TestCombineEquivalenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, keyClass := range combineKeyClasses {
		for _, combiner := range equivalenceCombiners {
			rj := combineJob(t, keyClass, combiner)
			for i := 0; i < 20; i++ {
				data := make([]byte, rng.Intn(1024))
				rng.Read(data)
				requireCombineEquivalent(t, rj, drawPairs(keyClass, data))
			}
		}
	}
}

// TestCombineHashPathSelection pins which jobs hash-group: the standard
// numeric and Text keys under their own comparator, and nothing with a
// distinct grouping comparator, an explicit sort comparator, or a key type
// whose comparator does not normalize.
func TestCombineHashPathSelection(t *testing.T) {
	for _, keyClass := range combineKeyClasses {
		if !engine.HashGroups(combineJob(t, keyClass, orderFoldCombiner)) {
			t.Errorf("%s: hash path not taken", keyClass)
		}
	}
	grouped := combineJob(t, types.TextName, orderFoldCombiner).Job
	grouped.Set(conf.KeyGroupingComparatorClass, firstByteGrouper)
	sorted := combineJob(t, types.TextName, orderFoldCombiner).Job
	sorted.Set(conf.KeySortComparatorClass, firstByteGrouper)
	pairKeys := combineJob(t, types.PairName, orderFoldCombiner).Job
	for name, job := range map[string]*conf.JobConf{"grouping comparator": grouped, "sort comparator": sorted, "pair key": pairKeys} {
		rj, err := engine.Resolve(job)
		if err != nil {
			t.Fatal(err)
		}
		if engine.HashGroups(rj) {
			t.Errorf("%s: hash path taken", name)
		}
	}

	// A distinct grouping comparator merges groups the sort keeps apart:
	// Combine must group by it, not by the normalized sort key.
	rj, err := engine.Resolve(grouped)
	if err != nil {
		t.Fatal(err)
	}
	pairs := drawPairs(types.TextName, []byte{0, 2, 0, 1, 1, 0, 2, 0, 0, 3, 1, 2, 0}) // "", ab, a, aa, bca
	combined, err := engine.Combine(rj, pairs, engine.NewTaskContext(grouped, "t", nil))
	if err != nil {
		t.Fatal(err)
	}
	var firsts []string
	for _, p := range combined {
		firsts = append(firsts, p.Key.(*types.Text).String())
	}
	if want := []string{"", "a", "bca"}; !slices.Equal(firsts, want) {
		t.Errorf("grouped combine keys = %q, want %q", firsts, want)
	}
}

// BenchmarkCombine measures Combine on a WordCount-shaped buffer (about 3%
// distinct keys) and an all-distinct one, each on the hash path and the
// stable-sort path. It stands for the engine.combine_ms layer.
func BenchmarkCombine(b *testing.B) {
	const n = 1 << 16
	rng := rand.New(rand.NewSource(1))
	shapes := []struct {
		name     string
		distinct int
	}{{"wordcount", n * 3 / 100}, {"distinct", n}}
	for _, shape := range shapes {
		pairs := make([]wio.Pair, n)
		for i := range pairs {
			k := i
			if shape.distinct < n {
				k = rng.Intn(shape.distinct)
			}
			pairs[i] = wio.Pair{Key: types.NewText(fmt.Sprintf("word%07d", k)), Value: types.NewLong(1)}
		}
		if shape.distinct == n {
			rng.Shuffle(n, func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
		}
		rj := combineJob(b, types.TextName, orderFoldCombiner)
		for _, path := range []struct {
			name    string
			combine func(*engine.ResolvedJob, []wio.Pair, *engine.TaskContext) ([]wio.Pair, error)
		}{{"hash", engine.Combine}, {"sort", engine.CombineSorted}} {
			b.Run(shape.name+"/"+path.name, func(b *testing.B) {
				b.ReportAllocs()
				buf := make([]wio.Pair, n)
				for i := 0; i < b.N; i++ {
					copy(buf, pairs)
					ctx := engine.NewTaskContext(rj.Job, "bench", nil)
					if _, err := path.combine(rj, buf, ctx); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
