package main

// The layer replay re-drives one job's records through the same public
// functions the engine calls — input reader or cache read, NewMapRun and
// the partitioner, Combine and SortPairs, the wio encoder with
// x10.Runtime.ShipFrame, spill.EncodeRun/WriteEncodedFile/OpenFile,
// NewMergeIter and DriveReduce, the output RecordWriter — one layer per
// span, on the job as the engine resolves it. The engines run these steps
// concurrently and interleaved; the replay runs them one after another on
// one goroutine, so each layer's self time is measured without the others
// in it. Its record counts must equal the job's counters (replay fidelity),
// or the layer times are not published.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"

	"m3r/internal/conf"
	"m3r/internal/counters"
	"m3r/internal/dfs"
	"m3r/internal/engine"
	"m3r/internal/formats"
	"m3r/internal/kvstore"
	"m3r/internal/lab"
	"m3r/internal/m3r"
	"m3r/internal/mapred"
	"m3r/internal/spill"
	"m3r/internal/wio"
)

// hadoopMapSlots is the Hadoop engine's default map slots per node, which
// lab clusters keep; with the node count it sets the engine's split hint.
const hadoopMapSlots = 2

// fidelityCounters are the record counts the replay must reproduce.
var fidelityCounters = []struct{ group, name string }{
	{counters.TaskGroup, counters.MapInputRecords},
	{counters.TaskGroup, counters.MapOutputRecords},
	{counters.TaskGroup, counters.CombineOutputRecords},
	{counters.M3RGroup, counters.LocalShufflePairs},
	{counters.M3RGroup, counters.RemoteShufflePairs},
	{counters.M3RGroup, counters.SpilledRuns},
	{counters.TaskGroup, counters.ReduceInputGroups},
	{counters.TaskGroup, counters.ReduceOutputRecords},
}

// replayPlan is one job's map tasks as its engine will see them, taken
// before Submit: the cache state a job starts from decides which splits are
// hits and where they run.
type replayPlan struct {
	hadoop bool
	job    *conf.JobConf
	rj     *engine.ResolvedJob
	tasks  []replayTask
}

type replayTask struct {
	index int
	split formats.InputSplit
	place int
	// Cache hits: an input-split entry (ranges), or a range [from, to) of
	// a cached output file's pairs (path).
	hit      bool
	ranges   []m3r.CachedRange
	path     string
	from, to int64
}

// planReplay resolves job against eng's filesystem and assigns its splits
// to places by the engine's rules: cache block, partition stability,
// HDFS locality, round-robin.
func planReplay(c *lab.Cluster, eng engine.Engine, userJob *conf.JobConf) (*replayPlan, error) {
	job := userJob.CloneJob()
	job.Set(conf.KeyFSInstance, eng.FileSystem())
	rj, err := engine.Resolve(job)
	if err != nil {
		return nil, err
	}
	p := &replayPlan{hadoop: eng == engine.Engine(c.Hadoop), job: job, rj: rj}
	if p.hadoop {
		splits, err := rj.InputFormat.GetSplits(job, job.GetInt(conf.KeyNumMapTasks, c.Nodes*hadoopMapSlots))
		if err != nil {
			return nil, err
		}
		for i, s := range splits {
			p.tasks = append(p.tasks, replayTask{index: i, split: s})
		}
		return p, nil
	}
	rj.SubstituteImmutableRunner()
	rt := c.M3R.Runtime()
	splits, err := rj.InputFormat.GetSplits(job, rt.NumPlaces()*2)
	if err != nil {
		return nil, err
	}
	cache := c.M3R.Cache()
	rr := 0
	for i, s := range splits {
		t := replayTask{index: i, split: s}
		if job.GetBool(conf.KeyM3RCache, true) {
			if err := lookupCache(c, cache, &t); err != nil {
				return nil, err
			}
		}
		switch ps, placed := s.(formats.PlacedSplit); {
		case t.hit:
		case placed && ps.Partition() >= 0:
			t.place = ps.Partition() % rt.NumPlaces()
		default:
			t.place = -1
			for _, h := range s.Locations() {
				if pl := rt.PlaceOfHost(h); pl >= 0 {
					t.place = pl
					break
				}
			}
			if t.place < 0 {
				t.place = rr % rt.NumPlaces()
				rr++
			}
		}
		p.tasks = append(p.tasks, t)
	}
	return p, nil
}

// lookupCache mirrors the M3R planner's cache lookup: the split's own
// input-cache entry first, then the cached output file it reads.
func lookupCache(c *lab.Cluster, cache *m3r.Cache, t *replayTask) error {
	name, ok := formats.SplitName(t.split)
	if !ok {
		return nil
	}
	ranges, hit, err := cache.LookupSplit(name, nil)
	if err != nil {
		return err
	}
	if hit && len(ranges) > 0 {
		t.hit, t.ranges, t.place = true, ranges, ranges[0].Block.Place
		return nil
	}
	fsplit := fileSplitOf(t.split)
	if fsplit == nil {
		return nil
	}
	path := dfs.CleanPath(fsplit.Path)
	info, ok := cache.Store().GetInfo(path)
	if !ok || info.Dir || len(info.Blocks) == 0 {
		return nil
	}
	if info.Attrs[conf.KeyM3RCacheOnly] != "" {
		// Cache-only files are addressed by pair index.
		place, err := blockPlaceAt(info, fsplit.Start)
		if err != nil {
			return err
		}
		t.hit, t.path, t.from, t.to, t.place = true, path, fsplit.Start, fsplit.Start+fsplit.Len, place
		return nil
	}
	if st, err := c.M3R.CachingFS().Stat(path); err == nil && fsplit.Start == 0 && fsplit.Len == st.Size {
		t.hit, t.path, t.from, t.to, t.place = true, path, 0, -1, info.Blocks[0].Place
	}
	return nil
}

func fileSplitOf(s formats.InputSplit) *formats.FileSplit {
	for {
		d, ok := s.(formats.DelegatingSplit)
		if !ok {
			break
		}
		s = d.GetDelegate()
	}
	f, _ := s.(*formats.FileSplit)
	return f
}

// blockPlaceAt returns the place of the block holding pair index idx. Block
// pair counts ride in the "n=<count>" tag; a single block holds them all.
func blockPlaceAt(info kvstore.PathInfo, idx int64) (int, error) {
	if len(info.Blocks) == 1 {
		return info.Blocks[0].Place, nil
	}
	var off int64
	for _, b := range info.Blocks {
		var n int64
		if _, err := fmt.Sscanf(b.Tag, "n=%d", &n); err != nil {
			return 0, fmt.Errorf("cache entry %s: block tag %q: %w", info.Path, b.Tag, err)
		}
		if idx < off+n {
			return b.Place, nil
		}
		off += n
	}
	return 0, fmt.Errorf("cache entry %s: pair %d beyond its %d pairs", info.Path, idx, off)
}

// replayRun is one sorted shuffle run: resident pairs, or a spill file.
type replayRun struct {
	src       int
	pairs     []wio.Pair
	size      int64
	spillPath string
	keyClass  string
	valClass  string
}

// replayer executes one plan.
type replayer struct {
	c        *lab.Cluster
	p        *replayPlan
	tr       *tracer
	dir      string // scratch for spill files
	jc       *counters.Counters
	parts    [][]*replayRun
	spillSeq int

	// M3R pool admission, when the engine is pooled: one fresh pool per
	// place (the engine's drains to zero between jobs) and the resident
	// runs that largest-first eviction may pick.
	budgets  []*engine.JobBudget
	resident [][]*replayRun

	runs, residentRuns int
}

// replayResult is what one replay measured besides its spans.
type replayResult struct {
	counters     *counters.Counters
	runs         int // shuffle runs formed
	residentRuns int // runs that stayed in memory through the merge
}

// replayOutDir is the HDFS scratch directory the replay's output writer
// writes into; each replay removes it when done.
const replayOutDir = "/perfbench-replay"

// replay executes plan, recording layer spans into tr. scratch is a local
// directory for spill files.
func replay(c *lab.Cluster, p *replayPlan, tr *tracer, scratch string) (*replayResult, error) {
	dir, err := os.MkdirTemp(scratch, "replay-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	r := &replayer{
		c: c, p: p, tr: tr, dir: dir,
		jc:    counters.New(),
		parts: make([][]*replayRun, p.rj.NumReducers),
	}
	defer c.FS.Delete(replayOutDir, true)
	if p.hadoop {
		err = r.runHadoop()
	} else {
		err = r.runM3R()
	}
	if err != nil {
		return nil, err
	}
	return &replayResult{counters: r.jc, runs: r.runs, residentRuns: r.residentRuns}, nil
}

func (r *replayer) taskContext(index int, place int, split formats.InputSplit, kind string) *engine.TaskContext {
	job := r.p.job.CloneJob()
	if !r.p.hadoop {
		job.Set(conf.KeyM3RTaskPlace, strconv.Itoa(place))
	}
	job.Set(conf.KeyTaskPartition, strconv.Itoa(index))
	return engine.NewTaskContext(job, fmt.Sprintf("replay_%s_%06d", kind, index), split)
}

// readSplit materializes a split through the job's input format, with
// fresh key/value holders per record as the M3R engine's cache fill does.
func (r *replayer) readSplit(t replayTask, job *conf.JobConf) ([]wio.Pair, error) {
	r.tr.begin("formats.read")
	defer r.tr.end()
	reader, err := r.p.rj.InputFormat.GetRecordReader(t.split, job)
	if err != nil {
		return nil, err
	}
	defer reader.Close()
	var out []wio.Pair
	for {
		k, v := reader.CreateKey(), reader.CreateValue()
		ok, err := reader.Next(k, v)
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, wio.Pair{Key: k, Value: v})
	}
}

// readCached reads a cache hit the way the engine's map task does.
func (r *replayer) readCached(t replayTask) ([]wio.Pair, error) {
	r.tr.begin("m3r.cache_read")
	defer r.tr.end()
	cache := r.c.M3R.CachingFS().Cache()
	if t.ranges != nil {
		pairs, _, err := cache.ReadRanges(t.place, t.ranges)
		return pairs, err
	}
	pairs, ok, err := cache.PathPairs(t.path)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("cached file %s vanished", t.path)
	}
	if t.to >= 0 {
		pairs = pairs[t.from:t.to]
	}
	return pairs, nil
}

func (r *replayer) runMap(mr engine.MapRun, pairs []wio.Pair, out mapred.OutputCollector, ctx *engine.TaskContext) error {
	r.tr.begin("engine.map")
	defer r.tr.end()
	mr.Configure(ctx.Job)
	pr, ok := mr.(engine.PairsRunner)
	if !ok {
		return fmt.Errorf("map runner %T cannot run pairs", mr)
	}
	return pr.RunPairs(pairs, out, ctx)
}

// shipped is one remote pair with its partition, awaiting encoding.
type shipped struct {
	q int
	p wio.Pair
}

func (r *replayer) runM3R() error {
	rj, job, c := r.p.rj, r.p.job, r.c
	P := c.M3R.Runtime().NumPlaces()
	R := rj.NumReducers
	if limit := c.M3R.ShufflePoolLimitBytes(); limit > 0 {
		r.budgets = make([]*engine.JobBudget, P)
		r.resident = make([][]*replayRun, P)
		for pl := range r.budgets {
			r.budgets[pl] = engine.NewBudgetPool(limit).Job("replay", job.GetInt64(conf.KeyM3RShuffleBudget, 0))
		}
	}
	dedup := job.GetBool(conf.KeyM3RDedup, true)
	for _, t := range r.p.tasks {
		ctx := r.taskContext(t.index, t.place, t.split, "m")
		var pairs []wio.Pair
		var err error
		if t.hit {
			pairs, err = r.readCached(t)
		} else {
			pairs, err = r.readSplit(t, ctx.Job)
		}
		if err != nil {
			return err
		}
		immutable := engine.MapTaskImmutable(rj, t.split)
		part := rj.NewPartitioner()
		local := make(map[int][]wio.Pair)
		remote := make(map[int][]shipped)
		deliver := func(q int, k, v wio.Writable, imm bool) {
			if !imm {
				k, v = wio.MustClone(k), wio.MustClone(v)
			}
			if d := c.M3R.PlaceOfPartition(q); d != t.place {
				remote[d] = append(remote[d], shipped{q, wio.Pair{Key: k, Value: v}})
				ctx.Cells.RemoteShufflePairs.Increment(1)
				return
			}
			local[q] = append(local[q], wio.Pair{Key: k, Value: v})
			ctx.Cells.LocalShufflePairs.Increment(1)
		}
		var combineBufs [][]wio.Pair
		if rj.HasCombiner {
			combineBufs = make([][]wio.Pair, R)
		}
		collect := mapred.CollectorFunc(func(k, v wio.Writable) error {
			q := part.GetPartition(k, v, R)
			if q < 0 || q >= R {
				return fmt.Errorf("partitioner returned %d of %d", q, R)
			}
			ctx.Cells.MapOutputRecords.Increment(1)
			if combineBufs == nil {
				deliver(q, k, v, immutable)
				return nil
			}
			if !immutable {
				k, v = wio.MustClone(k), wio.MustClone(v)
			}
			combineBufs[q] = append(combineBufs[q], wio.Pair{Key: k, Value: v})
			return nil
		})
		if err := r.runMap(rj.NewMapRun(), pairs, collect, ctx); err != nil {
			return err
		}
		for q, buf := range combineBufs {
			combined, err := r.combine(buf, ctx)
			if err != nil {
				return err
			}
			for _, p := range combined {
				deliver(q, p.Key, p.Value, true)
			}
		}
		r.tr.begin("engine.sort")
		for _, run := range local {
			engine.SortPairs(run, rj.SortCmp)
		}
		r.tr.end()
		if err := r.install(ctx, t.place, t.index, local); err != nil {
			return err
		}
		dests := make([]int, 0, len(remote))
		for d := range remote {
			dests = append(dests, d)
		}
		slices.Sort(dests)
		for _, d := range dests {
			byPartition, err := r.ship(t.place, d, remote[d], dedup && (rj.HasCombiner || immutable))
			if err != nil {
				return err
			}
			if err := r.install(ctx, d, t.index, byPartition); err != nil {
				return err
			}
		}
		r.jc.MergeFrom(ctx.Counters)
	}
	return r.reduceAll()
}

// combine sorts and combines one partition's map output buffer.
func (r *replayer) combine(buf []wio.Pair, ctx *engine.TaskContext) ([]wio.Pair, error) {
	if len(buf) == 0 {
		return nil, nil
	}
	r.tr.begin("engine.sort")
	engine.SortPairs(buf, r.p.rj.SortCmp)
	r.tr.end()
	r.tr.begin("engine.combine")
	defer r.tr.end()
	return engine.Combine(r.p.rj, buf, ctx)
}

// ship encodes one destination's pairs as the M3R shuffle does, carries
// the frame through the runtime's transport, decodes it at the
// destination, and sorts the arriving runs.
func (r *replayer) ship(from, to int, pairs []shipped, dedup bool) (map[int][]wio.Pair, error) {
	r.tr.begin("x10.ship")
	var buf bytes.Buffer
	enc := wio.NewEncoder(&buf, dedup)
	for _, s := range pairs {
		if err := enc.EncodeUvarint(uint64(s.q)); err != nil {
			r.tr.end()
			return nil, err
		}
		if err := enc.EncodePair(s.p); err != nil {
			r.tr.end()
			return nil, err
		}
	}
	if err := enc.Close(); err != nil {
		r.tr.end()
		return nil, err
	}
	payload, err := r.c.M3R.Runtime().ShipFrame(from, to, buf.Bytes())
	if err != nil {
		r.tr.end()
		return nil, err
	}
	dec := wio.NewDecoder(bytes.NewReader(payload))
	byPartition := make(map[int][]wio.Pair)
	for range pairs {
		q, err := dec.DecodeUvarint()
		if err != nil {
			r.tr.end()
			return nil, err
		}
		p, err := dec.DecodePair()
		if err != nil {
			r.tr.end()
			return nil, err
		}
		byPartition[int(q)] = append(byPartition[int(q)], p)
	}
	r.tr.end()
	r.tr.begin("engine.sort")
	for _, run := range byPartition {
		engine.SortPairs(run, r.p.rj.SortCmp)
	}
	r.tr.end()
	return byPartition, nil
}

// install adds one map task's sorted runs bound for place. On a pooled
// engine it follows the M3R admission path: the task's runs reserve in one
// transaction when they fit together, else one at a time with largest-
// first eviction, and a run the pool cannot admit spills.
func (r *replayer) install(ctx *engine.TaskContext, place, src int, runs map[int][]wio.Pair) error {
	qs := make([]int, 0, len(runs))
	for q, pairs := range runs {
		if len(pairs) > 0 {
			qs = append(qs, q)
		}
	}
	slices.Sort(qs)
	r.runs += len(qs)
	if r.budgets == nil {
		for _, q := range qs {
			r.parts[q] = append(r.parts[q], &replayRun{src: src, pairs: runs[q]})
		}
		return nil
	}
	r.tr.begin("engine.pool")
	defer r.tr.end()
	batch := make([]*replayRun, len(qs))
	var total int64
	for i, q := range qs {
		run := &replayRun{src: src, pairs: runs[q]}
		recs, _, _, err := encodeRecs(run.pairs)
		if err != nil {
			return err
		}
		for _, rec := range recs {
			run.size += rec.Size()
		}
		batch[i] = run
		total += run.size
		r.parts[q] = append(r.parts[q], run)
	}
	jb := r.budgets[place]
	if len(batch) > 1 && jb.Reserve(total) {
		r.resident[place] = append(r.resident[place], batch...)
		return nil
	}
	for _, run := range batch {
		admitted, _, err := jb.ReserveEvicting(run.size, func(min int64) (int64, error) {
			return r.evictLargest(ctx, place, min)
		})
		if err != nil {
			return err
		}
		if admitted {
			r.resident[place] = append(r.resident[place], run)
			continue
		}
		if err := r.spillRun(ctx, run); err != nil {
			return err
		}
	}
	return nil
}

// evictLargest re-spills the largest resident run at place strictly larger
// than min — ties to the lower source, then the earlier admission — and
// returns the reservation it frees.
func (r *replayer) evictLargest(ctx *engine.TaskContext, place int, min int64) (int64, error) {
	best := -1
	for i, run := range r.resident[place] {
		if run.size > min && (best < 0 || run.size > r.resident[place][best].size ||
			(run.size == r.resident[place][best].size && run.src < r.resident[place][best].src)) {
			best = i
		}
	}
	if best < 0 {
		return 0, nil
	}
	victim := r.resident[place][best]
	r.resident[place] = slices.Delete(r.resident[place], best, best+1)
	return victim.size, r.spillRun(ctx, victim)
}

// spillRun writes a resident run to disk in the spill format.
func (r *replayer) spillRun(ctx *engine.TaskContext, run *replayRun) error {
	recs, kc, vc, err := encodeRecs(run.pairs)
	if err != nil {
		return err
	}
	path, err := r.writeRun(recs)
	if err != nil {
		return err
	}
	run.pairs, run.spillPath, run.keyClass, run.valClass = nil, path, kc, vc
	if !r.p.hadoop {
		ctx.Cells.SpilledRuns.Increment(1)
	}
	return nil
}

// writeRun encodes recs as one spill segment and writes it to a file.
func (r *replayer) writeRun(recs []spill.Rec) (string, error) {
	codec, err := spill.ParseCodec(r.p.job.GetDefault(conf.KeyM3RSpillCodec, ""))
	if err != nil {
		return "", err
	}
	r.tr.begin("spill.encode")
	enc, err := spill.EncodeRun(recs, codec)
	r.tr.end()
	if err != nil {
		return "", err
	}
	r.spillSeq++
	path := filepath.Join(r.dir, fmt.Sprintf("run_%06d", r.spillSeq))
	r.tr.begin("spill.write")
	_, err = spill.WriteEncodedFile(path, enc)
	r.tr.end()
	return path, err
}

func encodeRecs(pairs []wio.Pair) ([]spill.Rec, string, string, error) {
	kc, err := wio.NameOf(pairs[0].Key)
	if err != nil {
		return nil, "", "", err
	}
	vc, err := wio.NameOf(pairs[0].Value)
	if err != nil {
		return nil, "", "", err
	}
	recs := make([]spill.Rec, len(pairs))
	for i, p := range pairs {
		if recs[i].K, err = wio.Marshal(p.Key); err != nil {
			return nil, "", "", err
		}
		if recs[i].V, err = wio.Marshal(p.Value); err != nil {
			return nil, "", "", err
		}
	}
	return recs, kc, vc, nil
}

// runHadoop replays the Hadoop engine's map side: records serialized into
// the sort buffer, and at each io.sort.mb spill every partition sorted (and
// combined) and written as a spill segment.
func (r *replayer) runHadoop() error {
	rj, job := r.p.rj, r.p.job
	R := rj.NumReducers
	limit := int64(job.GetInt(conf.KeySortMB, 4)) << 20
	if v := job.GetInt64(conf.KeySortBytes, 0); v > 0 {
		limit = v
	}
	rawCmp := rj.RawSortCmp
	if rawCmp == nil {
		keyClass := job.MapOutputKeyClass()
		rawCmp = wio.NewDeserializingComparator(rj.SortCmp, func() wio.Writable {
			k, _ := wio.New(keyClass)
			return k
		})
	}
	for _, t := range r.p.tasks {
		ctx := r.taskContext(t.index, 0, t.split, "m")
		pairs, err := r.readSplit(t, ctx.Job)
		if err != nil {
			return err
		}
		buf := make([][]spill.Rec, R)
		var used int64
		spillBuf := func() error {
			used = 0
			for q, recs := range buf {
				buf[q] = nil
				if err := r.hadoopSpill(ctx, t.index, q, recs, rawCmp); err != nil {
					return err
				}
			}
			return nil
		}
		part := rj.NewPartitioner()
		collect := mapred.CollectorFunc(func(k, v wio.Writable) error {
			q := part.GetPartition(k, v, R)
			if q < 0 || q >= R {
				return fmt.Errorf("partitioner returned %d of %d", q, R)
			}
			kb, err := wio.Marshal(k)
			if err != nil {
				return err
			}
			vb, err := wio.Marshal(v)
			if err != nil {
				return err
			}
			ctx.Cells.MapOutputRecords.Increment(1)
			rec := spill.Rec{K: kb, V: vb}
			buf[q] = append(buf[q], rec)
			if used += rec.Size(); used >= limit {
				return spillBuf()
			}
			return nil
		})
		if err := r.runMap(rj.NewMapRun(), pairs, collect, ctx); err != nil {
			return err
		}
		if err := spillBuf(); err != nil {
			return err
		}
		r.jc.MergeFrom(ctx.Counters)
	}
	return r.reduceAll()
}

// hadoopSpill sorts (and combines) one partition of the sort buffer and
// writes it as a spill segment.
func (r *replayer) hadoopSpill(ctx *engine.TaskContext, src, q int, recs []spill.Rec, rawCmp wio.RawComparator) error {
	if len(recs) == 0 {
		return nil
	}
	job := r.p.job
	if r.p.rj.HasCombiner {
		pairs := make([]wio.Pair, len(recs))
		for i, rec := range recs {
			k, err := wio.New(job.MapOutputKeyClass())
			if err != nil {
				return err
			}
			v, err := wio.New(job.MapOutputValueClass())
			if err != nil {
				return err
			}
			if err := wio.Unmarshal(rec.K, k); err != nil {
				return err
			}
			if err := wio.Unmarshal(rec.V, v); err != nil {
				return err
			}
			pairs[i] = wio.Pair{Key: k, Value: v}
		}
		combined, err := r.combine(pairs, ctx)
		if err != nil {
			return err
		}
		if recs, _, _, err = encodeRecs(combined); err != nil {
			return err
		}
	} else {
		r.tr.begin("engine.sort")
		spill.SortRecs(recs, rawCmp)
		r.tr.end()
	}
	path, err := r.writeRun(recs)
	if err != nil {
		return err
	}
	r.runs++
	r.parts[q] = append(r.parts[q], &replayRun{
		src: src, spillPath: path,
		keyClass: job.MapOutputKeyClass(), valClass: job.MapOutputValueClass(),
	})
	return nil
}

// reduceAll runs every partition's merge, reduce and output write.
func (r *replayer) reduceAll() error {
	for q := range r.parts {
		if err := r.reduce(q); err != nil {
			return err
		}
	}
	return nil
}

func (r *replayer) reduce(q int) error {
	rj, job := r.p.rj, r.p.job
	runs := r.parts[q]
	slices.SortStableFunc(runs, func(a, b *replayRun) int { return a.src - b.src })
	readers := make([]engine.RunReader, len(runs))
	r.tr.begin("spill.read")
	for _, run := range runs {
		if run.spillPath == "" {
			r.residentRuns++
			continue
		}
		pairs, err := readRunFile(run)
		if err != nil {
			r.tr.end()
			return err
		}
		run.pairs = pairs
	}
	r.tr.end()
	for i, run := range runs {
		readers[i] = engine.NewSliceRunReader(run.pairs)
	}

	r.tr.begin("engine.merge")
	merged, err := drainMerge(readers, rj.SortCmp)
	r.tr.end()
	if err != nil {
		return err
	}

	place := 0
	if !r.p.hadoop {
		place = r.c.M3R.PlaceOfPartition(q)
	}
	ctx := r.taskContext(q, place, nil, "r")
	var out []wio.Pair
	collect := mapred.CollectorFunc(func(k, v wio.Writable) error {
		ctx.Cells.ReduceOutputRecords.Increment(1)
		if !rj.ReduceImmutable {
			k, v = wio.MustClone(k), wio.MustClone(v)
		}
		out = append(out, wio.Pair{Key: k, Value: v})
		return nil
	})
	r.tr.begin("engine.reduce")
	reducer := rj.NewReduceRun()
	reducer.Configure(ctx.Job)
	err = engine.DriveReduce(reducer, rj.GroupCmp, engine.SlicePairs(merged), collect, ctx, false)
	r.tr.end()
	if err != nil {
		return err
	}
	r.jc.MergeFrom(ctx.Counters)

	// M3R keeps temporary outputs in the cache only; everything else is
	// written through the output format.
	outPath := job.OutputPath()
	if outPath == "" || (!r.p.hadoop && job.IsTemporaryOutput(outPath)) {
		return nil
	}
	r.tr.begin("formats.write")
	defer r.tr.end()
	return r.writeOutput(ctx.Job, q, out)
}

// readRunFile decodes one spill file back into writables.
func readRunFile(run *replayRun) ([]wio.Pair, error) {
	s, err := spill.OpenFile(run.spillPath)
	if err != nil {
		return nil, err
	}
	rd := engine.NewDecodingRunReader(s, run.keyClass, run.valClass)
	defer rd.Close()
	var pairs []wio.Pair
	for {
		p, ok, err := rd.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return pairs, nil
		}
		pairs = append(pairs, p)
	}
}

// drainMerge k-way merges the runs into one sorted slice.
func drainMerge(readers []engine.RunReader, cmp wio.Comparator) ([]wio.Pair, error) {
	m, err := engine.NewMergeIter(readers, cmp)
	if err != nil {
		return nil, err
	}
	defer m.Close()
	var out []wio.Pair
	for {
		p, ok, err := m.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, p)
	}
}

// writeOutput writes one partition's output through the job's output
// format, into a scratch directory on the cluster's HDFS.
func (r *replayer) writeOutput(taskJob *conf.JobConf, q int, pairs []wio.Pair) error {
	job := taskJob.CloneJob()
	job.Set(conf.KeyFSInstance, r.c.Hadoop.FileSystem())
	job.SetOutputPath(replayOutDir)
	of, err := r.p.rj.NewOutputFormat()
	if err != nil {
		return err
	}
	w, err := of.GetRecordWriter(job, fmt.Sprintf("part-%05d", q))
	if err != nil {
		return err
	}
	for _, p := range pairs {
		if err := w.Write(p.Key, p.Value); err != nil {
			w.Close()
			return err
		}
	}
	return w.Close()
}

// checkFidelity compares the replay's record counts with the job's.
func checkFidelity(job, replayed *counters.Counters) error {
	for _, fc := range fidelityCounters {
		if got, want := replayed.Value(fc.group, fc.name), job.Value(fc.group, fc.name); got != want {
			return fmt.Errorf("%s: replay %d, job %d", fc.name, got, want)
		}
	}
	return nil
}
