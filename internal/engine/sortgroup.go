package engine

import (
	"math"
	"slices"
	"strings"

	"m3r/internal/counters"
	"m3r/internal/mapred"
	"m3r/internal/wio"
)

// SortPairs stably sorts pairs by key with cmp. Stability matters: Hadoop
// preserves the map-output order of equal keys within one task, and tests
// rely on deterministic output. slices.SortStableFunc keeps the hot sort
// free of sort.SliceStable's per-call reflect.Swapper allocation.
func SortPairs(pairs []wio.Pair, cmp wio.Comparator) {
	slices.SortStableFunc(pairs, func(a, b wio.Pair) int {
		return cmp.Compare(a.Key, b.Key)
	})
}

// PairIter is a stream of sorted pairs feeding a reduce task: a MergeIter
// over shuffle runs, or a SlicePairs over an in-memory buffer.
type PairIter interface {
	Next() (wio.Pair, bool, error)
}

// SlicePairs returns a PairIter over an in-memory sorted slice (the same
// cursor the merge's in-memory leaf uses).
func SlicePairs(pairs []wio.Pair) PairIter { return &sliceRunReader{pairs: pairs} }

// groupValues iterates the values of the current group directly off the
// pair stream, advancing it until groupCmp reports a new key. cur/ok alias
// DriveReduce's lookahead so the group boundary survives the iterator.
type groupValues struct {
	in         PairIter
	groupCmp   wio.Comparator
	cur        *wio.Pair
	ok         *bool
	groupKey   wio.Writable
	recordCell *counters.Counter
	err        error
	first      bool
	done       bool
}

// Next implements mapred.ValueIterator.
func (g *groupValues) Next() (wio.Writable, bool) {
	if g.done || g.err != nil || !*g.ok {
		return nil, false
	}
	if g.first {
		g.first = false
	} else if g.groupCmp.Compare(g.groupKey, g.cur.Key) != 0 {
		g.done = true
		return nil, false
	}
	v := g.cur.Value
	g.recordCell.Increment(1)
	next, ok, err := g.in.Next()
	if err != nil {
		g.err = err
		return nil, false
	}
	*g.cur, *g.ok = next, ok
	return v, true
}

// DriveReduce feeds the sorted pair stream group-by-group (per groupCmp)
// into run, emitting through out. The stream is consumed one pair ahead —
// a MergeIter streams runs straight through without a materialized merged
// copy. combine selects the combiner counter names instead of the reducer
// ones.
func DriveReduce(run ReduceRun, groupCmp wio.Comparator, in PairIter,
	out mapred.OutputCollector, ctx *TaskContext, combine bool) error {
	groupCell, recordCell := ctx.Cells.ReduceInputGroups, ctx.Cells.ReduceInputRecords
	if combine {
		groupCell, recordCell = nil, ctx.Cells.CombineInputRecords
	}
	cur, ok, err := in.Next()
	if err != nil {
		return err
	}
	for ok {
		if groupCell != nil {
			groupCell.Increment(1)
		}
		values := &groupValues{
			in: in, groupCmp: groupCmp, cur: &cur, ok: &ok,
			groupKey: cur.Key, recordCell: recordCell, first: true,
		}
		if err := run.Reduce(cur.Key, values, out, ctx); err != nil {
			return err
		}
		// Drain any values the reducer did not consume so the next group
		// starts at a group boundary.
		for {
			if _, more := values.Next(); !more {
				break
			}
		}
		if values.err != nil {
			return values.err
		}
	}
	return run.Close()
}

// Combine runs the job's combiner over an unsorted buffer of map output
// pairs and returns the combined pairs. Both engines use it: Hadoop before
// spilling a buffer to disk, M3R before shipping a buffer into the shuffle.
// The combiner sees each group in key order, with the first-arriving key
// object and its values in arrival order — the stable sort's grouping.
// When the sort comparator normalizes keys and also groups, equal keys are
// grouped by hashing and only the distinct keys are sorted; every other
// job stable-sorts the buffer in place and groups with the grouping
// comparator.
//
// Hadoop serializes combiner output the moment it is collected, so a
// combiner may legally reuse its output objects between groups. To keep
// the returned pairs stable, unmarked combiners' outputs are cloned here
// (ImmutableOutput combiners' outputs are returned as-is, §4.1).
func Combine(rj *ResolvedJob, pairs []wio.Pair, ctx *TaskContext) ([]wio.Pair, error) {
	return combine(rj, pairs, ctx, true)
}

// combine is Combine with the hash path allowed or not; the equivalence
// tests force the sort path through it.
func combine(rj *ResolvedJob, pairs []wio.Pair, ctx *TaskContext, hashOK bool) ([]wio.Pair, error) {
	run := rj.NewCombineRun()
	if run == nil || len(pairs) == 0 {
		return pairs, nil
	}
	run.Configure(rj.Job)
	var norm wio.KeyNormalizer
	if hashOK {
		norm = hashNormalizer(rj, len(pairs))
	}
	var groups []keyGroup
	var next []int32
	capHint := len(pairs)
	if norm != nil {
		groups, next = groupByKey(pairs, norm)
		capHint = len(groups)
	}
	out := make([]wio.Pair, 0, capHint)
	collector := mapred.CollectorFunc(func(key, value wio.Writable) error {
		if !rj.CombineImmutable {
			key, value = wio.MustClone(key), wio.MustClone(value)
		}
		out = append(out, wio.Pair{Key: key, Value: value})
		return nil
	})
	var err error
	if norm != nil {
		err = reduceGroups(run, pairs, groups, next, collector, ctx)
	} else {
		SortPairs(pairs, rj.SortCmp)
		err = DriveReduce(run, rj.GroupCmp, SlicePairs(pairs), collector, ctx, true)
	}
	if err != nil {
		return nil, err
	}
	ctx.IncrCounter(counters.TaskGroup, counters.CombineOutputRecords, int64(len(out)))
	return out, nil
}

// hashNormalizer returns the sort comparator's key normalizer when a
// buffer of n pairs can be hash-grouped: the comparator normalizes keys,
// it is also the grouping comparator, and n fits the int32 chain links.
// Otherwise it returns nil.
func hashNormalizer(rj *ResolvedJob, n int) wio.KeyNormalizer {
	norm, ok := rj.SortCmp.(wio.KeyNormalizer)
	if !ok || rj.GroupCmp != rj.SortCmp || n > math.MaxInt32 {
		return nil
	}
	return norm
}

// keyGroup is one distinct key of a buffer: its normalized form and the
// first and last pair carrying it.
type keyGroup struct {
	norm       string
	head, tail int32
}

// groupByKey groups pairs by normalized key in one pass and returns the
// groups sorted by key, plus the chains linking each group's pairs in
// arrival order: next[i] is the index of the pair after pairs[i] in its
// group, -1 at the group's tail.
func groupByKey(pairs []wio.Pair, norm wio.KeyNormalizer) ([]keyGroup, []int32) {
	next := make([]int32, len(pairs))
	index := make(map[string]int32)
	var groups []keyGroup
	var buf []byte
	for i, p := range pairs {
		next[i] = -1
		buf = norm.AppendNormalizedKey(buf[:0], p.Key)
		if g, ok := index[string(buf)]; ok {
			next[groups[g].tail] = int32(i)
			groups[g].tail = int32(i)
			continue
		}
		k := string(buf)
		index[k] = int32(len(groups))
		groups = append(groups, keyGroup{norm: k, head: int32(i), tail: int32(i)})
	}
	// Normalized keys are distinct, so an unstable sort is deterministic.
	slices.SortFunc(groups, func(a, b keyGroup) int { return strings.Compare(a.norm, b.norm) })
	return groups, next
}

// reduceGroups feeds each group to run in order, with the key of the
// group's first pair, exactly as DriveReduce feeds a stably sorted buffer
// in combine mode.
func reduceGroups(run ReduceRun, pairs []wio.Pair, groups []keyGroup, next []int32,
	out mapred.OutputCollector, ctx *TaskContext) error {
	for _, g := range groups {
		values := &chainValues{pairs: pairs, next: next, i: g.head, recordCell: ctx.Cells.CombineInputRecords}
		if err := run.Reduce(pairs[g.head].Key, values, out, ctx); err != nil {
			return err
		}
		// Values the combiner left unread still count as input records.
		for {
			if _, more := values.Next(); !more {
				break
			}
		}
	}
	return run.Close()
}

// chainValues iterates one group's values along its next-index chain.
type chainValues struct {
	pairs      []wio.Pair
	next       []int32
	i          int32
	recordCell *counters.Counter
}

// Next implements mapred.ValueIterator.
func (c *chainValues) Next() (wio.Writable, bool) {
	if c.i < 0 {
		return nil, false
	}
	v := c.pairs[c.i].Value
	c.i = c.next[c.i]
	c.recordCell.Increment(1)
	return v, true
}
