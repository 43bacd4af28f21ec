package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"slices"
	"strconv"

	"m3r/internal/conf"
	"m3r/internal/dfs"
	"m3r/internal/engine"
	"m3r/internal/formats"
	"m3r/internal/lab"
	"m3r/internal/matrix"
	"m3r/internal/microbench"
	"m3r/internal/sim"
	"m3r/internal/wio"
	"m3r/internal/wordcount"
)

// Cluster shape shared by every workload: the lab default of 4 places on
// the in-process transport.
const places = 4

// Workload sizes. Each is chosen so one op takes tens to hundreds of
// milliseconds on a 2-core machine: enough ops per run for a tail
// percentile, small enough to keep the process near 100 MB resident.
const (
	wcInputBytes = 4 << 20
	wcReducers   = 4

	mvBlocks    = 16
	mvBlockSize = 200
	mvSparsity  = 0.01
	// Ten iterations (20 jobs) per op rather than the paper's three: a
	// 3-iteration op is ~15 ms of CPU, and which GC cycles landed in it
	// moved its tail percentile by over 20% between runs.
	mvIterations = 10

	mbPairs      = 3000
	mbValueBytes = 2048
	mbIterations = 3
	// Eight partitions over four places: each place receives two
	// equal-sized runs per job, of which the pool admits exactly one. With
	// runs of unequal size, which runs spill or are evicted would depend on
	// the order concurrent map tasks reach the pool, and the pool and spill
	// counts would vary from op to op.
	mbPartitions = 8
	// mbPoolBytes is the engine pool per place, below the ~1.5 MiB of
	// shuffle each place receives per job.
	mbPoolBytes = 1 << 20
	// mbBlockSize holds each ~770 KiB input part file in one HDFS block, so
	// each is one split and every run of every job has 375 pairs.
	mbBlockSize = 1 << 20
)

// step is one job of an op, followed by the deletes an HMR client issues
// once the job's input is consumed (matrix.RunIterations, microbench.Run).
type step struct {
	eng     engine.Engine
	job     *conf.JobConf
	deletes []string
}

// instance is one workload set up on its own cluster.
type instance struct {
	c *lab.Cluster
	// fs is the client's view of the filesystem: the M3R engine's caching
	// filesystem, so deletes keep its cache coherent, or plain HDFS for
	// the Hadoop engine.
	fs         dfs.FileSystem
	steps      func() []step
	verify     func() error
	outputs    []string // final outputs, deleted after verification
	inputBytes int64
	base       *footprint // state after set-up, which every op must restore
}

// footprint is what an op could leave behind: cache entries and HDFS files.
type footprint struct{ cachePaths, files int }

func (inst *instance) footprint() (footprint, error) {
	store := inst.c.M3R.Cache().Store()
	var fp footprint
	var walk func(dir string)
	walk = func(dir string) {
		for _, p := range store.Children(dir) {
			fp.cachePaths++
			walk(p)
		}
	}
	walk("/")
	files, err := dfs.ListRecursive(inst.c.FS, "/")
	fp.files = len(files)
	return fp, err
}

func (inst *instance) snapshotBaseline() error {
	fp, err := inst.footprint()
	inst.base = &fp
	return err
}

// checkSteady fails an op that left shuffle-pool bytes reserved, one of its
// jobs' outputs, or cache entries or files that set-up did not have: the
// benchmark must measure the same state on its hundredth op as on its
// first.
func (inst *instance) checkSteady(steps []step) error {
	if held := inst.c.M3R.ShufflePoolHeldBytes(); held != 0 {
		return fmt.Errorf("steady state: %d shuffle pool bytes still held after the op", held)
	}
	for _, st := range steps {
		if out := st.job.OutputPath(); inst.fs.Exists(out) {
			return fmt.Errorf("steady state: the op left %s behind", out)
		}
	}
	if inst.base == nil {
		return nil
	}
	fp, err := inst.footprint()
	if err != nil {
		return err
	}
	if fp != *inst.base {
		return fmt.Errorf("steady state: %d cache paths and %d files after the op, %d and %d after set-up",
			fp.cachePaths, fp.files, inst.base.cachePaths, inst.base.files)
	}
	return nil
}

// workload describes one benchmark workload. Why each exists is recorded in
// BENCHMARK.json and README.md.
type workload struct {
	name string
	// setup builds the cluster and generates the inputs from seed. The
	// warm-up op that fills the cache is run by the caller.
	setup func(dir string, seed int64, tr *tracer) (*instance, error)
}

var workloads = []workload{
	{"wordcount", func(dir string, seed int64, tr *tracer) (*instance, error) {
		return setupWordcount(dir, seed, tr, false)
	}},
	{"wordcount-hadoop", func(dir string, seed int64, tr *tracer) (*instance, error) {
		return setupWordcount(dir, seed, tr, true)
	}},
	{"matvec", setupMatvec},
	{"shuffle", setupShuffle},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// realWork is the benchmark's cost model: the paper-shaped delays of
// sim.Default are accounted in sim.Stats but never slept, so wall time is
// the engines' own work.
func realWork() *sim.CostModel {
	c := sim.Default()
	c.Sleep = false
	return c
}

// newCluster builds the 4-place lab cluster. A positive poolBytes gives the
// M3R engine a per-place shuffle pool; the cache is always unbounded.
// blockSize 0 keeps the lab default HDFS block size.
func newCluster(dir string, poolBytes, blockSize int64, tr *tracer) (*lab.Cluster, error) {
	if poolBytes <= 0 {
		poolBytes = -1 // no pool, whatever the environment says
	}
	var c *lab.Cluster
	err := tr.do("lab.New", func() (err error) {
		c, err = lab.New(lab.Options{
			Nodes:              places,
			BlockSize:          blockSize,
			ShuffleBudgetBytes: poolBytes,
			CacheBudgetBytes:   -1,
			Cost:               realWork(),
			Dir:                dir,
		})
		return err
	})
	return c, err
}

// datasetBytes sums the sizes of the files under dirs.
func datasetBytes(fs dfs.FileSystem, dirs ...string) (int64, error) {
	var n int64
	for _, d := range dirs {
		files, err := dfs.ListRecursive(fs, d)
		if err != nil {
			return 0, err
		}
		for _, f := range files {
			if !f.IsDir {
				n += f.Size
			}
		}
	}
	return n, nil
}

// outputFiles lists the part files of a job output directory.
func outputFiles(fs dfs.FileSystem, dir string) ([]string, error) {
	files, err := dfs.ListRecursive(fs, dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, f := range files {
		if !f.IsDir && dfs.Base(f.Path) != formats.SuccessMarker {
			out = append(out, f.Path)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no output files under %s", dir)
	}
	return out, nil
}

func setupWordcount(dir string, seed int64, tr *tracer, hadoop bool) (*instance, error) {
	c, err := newCluster(dir, 0, 0, tr)
	if err != nil {
		return nil, err
	}
	const in, out = "/wc/in", "/wc/out"
	var want map[string]int32
	err = tr.do("generate", func() error {
		if err := wordcount.Generate(c.FS, in, wcInputBytes, seed); err != nil {
			return err
		}
		// The reference is tallied from the generated text, by neither
		// engine.
		want, err = wordcount.CountReference(c.FS, in)
		return err
	})
	if err != nil {
		c.Close()
		return nil, err
	}
	inst := &instance{c: c, fs: c.M3R.CachingFS(), outputs: []string{out}}
	var eng engine.Engine = c.M3R
	if hadoop {
		eng, inst.fs = c.Hadoop, c.FS
	}
	inst.steps = func() []step {
		return []step{{eng: eng, job: wordcount.NewJob(in, out, wcReducers, true)}}
	}
	inst.verify = func() error { return verifyWordcount(c.FS, out, want) }
	if inst.inputBytes, err = datasetBytes(c.FS, in); err != nil {
		c.Close()
		return nil, err
	}
	return inst, nil
}

// verifyWordcount parses the TextOutputFormat lines of out and compares
// every count with the reference.
func verifyWordcount(fs dfs.FileSystem, out string, want map[string]int32) error {
	files, err := outputFiles(fs, out)
	if err != nil {
		return err
	}
	got := make(map[string]int32, len(want))
	for _, f := range files {
		data, err := dfs.ReadAll(fs, f)
		if err != nil {
			return err
		}
		for _, line := range bytes.Split(data, []byte("\n")) {
			if len(line) == 0 {
				continue
			}
			word, count, ok := bytes.Cut(line, []byte("\t"))
			if !ok {
				return fmt.Errorf("wordcount: malformed line %q in %s", line, f)
			}
			n, err := strconv.ParseInt(string(count), 10, 32)
			if err != nil {
				return fmt.Errorf("wordcount: bad count in %q: %w", line, err)
			}
			if _, dup := got[string(word)]; dup {
				return fmt.Errorf("wordcount: word %q emitted twice", word)
			}
			got[string(word)] = int32(n)
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("wordcount: %d distinct words, want %d", len(got), len(want))
	}
	for w, n := range want {
		if got[w] != n {
			return fmt.Errorf("wordcount: %q counted %d, want %d", w, got[w], n)
		}
	}
	return nil
}

func setupMatvec(dir string, seed int64, tr *tracer) (*instance, error) {
	c, err := newCluster(dir, 0, 0, tr)
	if err != nil {
		return nil, err
	}
	cfg := matrix.Config{
		RowBlocks: mvBlocks, ColBlocks: mvBlocks, BlockSize: mvBlockSize,
		Sparsity: mvSparsity, Partitions: places, Dir: "/mv", Seed: seed,
	}
	var want []float64
	err = tr.do("generate", func() error {
		if err := matrix.Generate(c.FS, cfg); err != nil {
			return err
		}
		want = sparseReference(cfg, mvIterations)
		return nil
	})
	if err != nil {
		c.Close()
		return nil, err
	}
	fs := c.M3R.CachingFS()
	final := cfg.Dir + "/Vout"
	inst := &instance{c: c, fs: fs, outputs: []string{final}}
	// The op is matrix.RunIterations' sequence, one step per job, so each
	// job gets its own span and replay.
	inst.steps = func() []step {
		var steps []step
		vIn := cfg.VPath()
		for it := 0; it < mvIterations; it++ {
			vOut := fmt.Sprintf("%s/temp_V_%d", cfg.Dir, it+1)
			if it == mvIterations-1 {
				vOut = final
			}
			jobs := matrix.IterationJobs(cfg, vIn, vOut, it)
			dels := []string{fmt.Sprintf("%s/temp_partials_%d", cfg.Dir, it)}
			if vIn != cfg.VPath() {
				dels = append(dels, vIn)
			}
			steps = append(steps, step{eng: c.M3R, job: jobs[0]}, step{eng: c.M3R, job: jobs[1], deletes: dels})
			vIn = vOut
		}
		return steps
	}
	inst.verify = func() error {
		got, err := matrix.ReadVector(c.FS, cfg, final)
		if err != nil {
			return err
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
				return fmt.Errorf("matvec: row %d = %v, want %v", i, got[i], want[i])
			}
		}
		return nil
	}
	if inst.inputBytes, err = datasetBytes(c.FS, cfg.GPath(), cfg.VPath()); err != nil {
		c.Close()
		return nil, err
	}
	return inst, nil
}

// sparseReference computes iters iterations of V' = G·V from the same
// seeded blocks matrix.Generate writes — matrix.ReferenceMultiply's
// arithmetic, row by row in the same column order, without materializing
// the dense matrix (80 MB at the benchmark's size).
func sparseReference(c matrix.Config, iters int) []float64 {
	type entry struct {
		col int
		val float64
	}
	rows := make([][]entry, c.Rows())
	for bi := 0; bi < c.RowBlocks; bi++ {
		for bj := 0; bj < c.ColBlocks; bj++ {
			b := matrix.RandomCSC(int32(c.BlockSize), int32(c.BlockSize), c.Sparsity, c.Seed+int64(bi)*1000003+int64(bj))
			for j := int32(0); j < b.Cols; j++ {
				for p := b.ColPtr[j]; p < b.ColPtr[j+1]; p++ {
					r := bi*c.BlockSize + int(b.RowIdx[p])
					rows[r] = append(rows[r], entry{bj*c.BlockSize + int(j), b.Vals[p]})
				}
			}
		}
	}
	for _, r := range rows {
		slices.SortFunc(r, func(a, b entry) int { return a.col - b.col })
	}
	v := matrix.ReferenceVector(c)
	for it := 0; it < iters; it++ {
		next := make([]float64, len(v))
		for i, r := range rows {
			var sum float64
			for _, e := range r {
				sum += e.val * v[e.col]
			}
			next[i] = sum
		}
		v = next
	}
	return v
}

func setupShuffle(dir string, seed int64, tr *tracer) (*instance, error) {
	c, err := newCluster(dir, mbPoolBytes, mbBlockSize, tr)
	if err != nil {
		return nil, err
	}
	cfg := microbench.Config{
		Pairs: mbPairs, ValueBytes: mbValueBytes, Percent: 100,
		Iterations: mbIterations, Partitions: mbPartitions, Dir: "/mb", Seed: seed,
	}
	var want [][32]byte
	err = tr.do("generate", func() error {
		if err := microbench.Generate(c.FS, cfg); err != nil {
			return err
		}
		want, err = valueDigests(c.FS, cfg.InputDir())
		return err
	})
	if err != nil {
		c.Close()
		return nil, err
	}
	final := cfg.Dir + "/final"
	inst := &instance{c: c, fs: c.M3R.CachingFS(), outputs: []string{final}}
	// microbench.Run's pipeline, one step per job.
	inst.steps = func() []step {
		var steps []step
		in := cfg.InputDir()
		for it := 0; it < mbIterations; it++ {
			out := fmt.Sprintf("%s/temp_iter_%d", cfg.Dir, it+1)
			if it == mbIterations-1 {
				out = final
			}
			s := step{eng: c.M3R, job: cfg.IterationJob(it, in, out)}
			if in != cfg.InputDir() {
				s.deletes = []string{in}
			}
			steps = append(steps, s)
			in = out
		}
		return steps
	}
	inst.verify = func() error {
		got, err := valueDigests(c.FS, final)
		if err != nil {
			return err
		}
		if len(got) != len(want) {
			return fmt.Errorf("shuffle: %d records, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				return fmt.Errorf("shuffle: output values differ from the input's")
			}
		}
		return nil
	}
	if inst.inputBytes, err = datasetBytes(c.FS, cfg.InputDir()); err != nil {
		c.Close()
		return nil, err
	}
	return inst, nil
}

// valueDigests returns the sorted SHA-256 digests of every value in the
// SequenceFiles under dir: the multiset of values, order-free.
func valueDigests(fs dfs.FileSystem, dir string) ([][32]byte, error) {
	files, err := outputFiles(fs, dir)
	if err != nil {
		return nil, err
	}
	var out [][32]byte
	for _, f := range files {
		pairs, err := formats.ReadSeqFileAll(fs, f)
		if err != nil {
			return nil, err
		}
		for _, p := range pairs {
			b, err := wio.Marshal(p.Value)
			if err != nil {
				return nil, err
			}
			out = append(out, sha256.Sum256(b))
		}
	}
	slices.SortFunc(out, func(a, b [32]byte) int { return bytes.Compare(a[:], b[:]) })
	return out, nil
}
