// Command perfbench is the repository benchmark: a single-process,
// closed-loop harness that drives lab clusters in real-work mode and
// reports end-to-end job metrics (--trace 0) or per-layer metrics from a
// traced replay (--trace 1). README.md describes the workloads and
// metrics; run.sh builds and runs it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"syscall"
	"time"
	"unsafe"

	"m3r/internal/counters"
	"m3r/internal/dfs"
	"m3r/internal/engine"
	"m3r/internal/sim"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string
}

// setupRuns is how many times an untraced run sets up; setup_s is the
// median. A traced run does not report setup_s and sets up once.
const setupRuns = 5

// minOps is the fewest ops a run measures, however long they take: with
// at least 30 ops the tail is p66 or higher on every run, never the median.
const minOps = 30

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var o options
	var trace int
	fl.StringVar(&o.workload, "workload", "", "workload name: wordcount, wordcount-hadoop, matvec or shuffle")
	fl.Int64Var(&o.seed, "seed", 1, "seed the inputs are generated from")
	fl.IntVar(&o.seconds, "seconds", 10, "how long to measure")
	fl.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	fl.StringVar(&o.out, "out", ".", "directory for scratch files and the span dump")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	o.trace = trace == 1
	w, ok := findWorkload(o.workload)
	if !ok || o.seconds < 1 {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q or bad --seconds\n", o.workload)
		return 2
	}
	res, err := runBench(w, o, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, l := range res.summary {
		fmt.Fprintln(stdout, l)
	}
	line, err := json.Marshal(res.report)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the JSON result, the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type result struct {
	report  report
	summary []string // human-readable lines printed before the report
}

// opRecord is one measured op. Records stay small and hold no engine
// objects: a run keeps one per op, and peak_rss_mb must not grow with the
// op count.
type opRecord struct {
	id int
	// The op's work: every Submit and the client's deletes, as wall time
	// and as the process's CPU time.
	spent cost
	// whole is spent plus all that tracing adds to a traced op: planning,
	// usage snapshots, replay, span recording and forced collections.
	whole  cost
	traced bool
	err    error

	// Traced ops only: what the per-layer metrics read, summed over the
	// op's jobs.
	counts                map[string]int64 // layerCounters
	stats                 map[string]int64 // layerStats deltas over the submits
	m3rJobMs, hadoopJobMs []float64        // each job's Report.Wall
	alloc, mallocs        uint64
	gcs                   uint32
	runs, resident        int
	diverged              error // first replay-fidelity mismatch
}

// layerCounters are the job counters the per-layer metrics read.
var layerCounters = []struct{ group, name string }{
	{counters.TaskGroup, counters.MapOutputRecords},
	{counters.TaskGroup, counters.CombineInputRecords},
	{counters.TaskGroup, counters.CombineOutputRecords},
	{counters.M3RGroup, counters.PoolContendedBytes},
	{counters.M3RGroup, counters.EvictedResidentRuns},
	{counters.M3RGroup, counters.LocalShufflePairs},
	{counters.M3RGroup, counters.RemoteShufflePairs},
	{counters.M3RGroup, counters.DedupHits},
	{counters.M3RGroup, counters.CacheHitSplits},
	{counters.M3RGroup, counters.CacheMissSplits},
}

// layerStats are the sim.Stats counters the per-layer metrics read.
var layerStats = []string{sim.RemoteBytes, sim.SpillBytes, sim.HDFSReadBytes, sim.ShuffleFetchBytes, sim.ModeledDelayNs}

// addJob records one traced job's report.
func (rec *opRecord) addJob(rep *engine.Report) {
	if rec.counts == nil {
		rec.counts = map[string]int64{}
	}
	for _, lc := range layerCounters {
		rec.counts[lc.name] += rep.Counters.Value(lc.group, lc.name)
	}
	if rep.Engine == "hadoop" {
		rec.hadoopJobMs = append(rec.hadoopJobMs, ms(rep.Wall))
	} else {
		rec.m3rJobMs = append(rec.m3rJobMs, ms(rep.Wall))
	}
}

// bench is one run of one workload.
type bench struct {
	tr      *tracer
	scratch string
}

func runBench(w workload, o options, stderr io.Writer) (*result, error) {
	// The engines read a few M3R_* environment defaults (budgets, codecs,
	// fault injection); the benchmark pins its own settings instead.
	for _, kv := range os.Environ() {
		if name, _, _ := strings.Cut(kv, "="); strings.HasPrefix(name, "M3R_") {
			os.Unsetenv(name)
		}
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(o.out, "perfbench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	b := &bench{tr: newTracer(o.trace), scratch: scratch}

	// Set-up runs several times; the last cluster is the one measured.
	var inst *instance
	var setups []cost
	dir := ""
	n := setupRuns
	if o.trace {
		n = 1
	}
	for k := 0; k < n; k++ {
		if inst != nil {
			// Drop the previous cluster and return its memory to the OS,
			// so the peak RSS is one cluster's, however many set-ups ran.
			inst.c.Close()
			inst = nil
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
			debug.FreeOSMemory()
		}
		if dir, err = os.MkdirTemp(scratch, "cluster-"); err != nil {
			return nil, err
		}
		start := now()
		b.tr.op = -1 - k
		b.tr.begin("setup")
		inst, err = w.setup(dir, o.seed, b.tr)
		if err != nil {
			b.tr.end()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		// A failed warm-up is reported but not fatal: the measured ops
		// will fail the same way and count as failed.
		if warm := b.runOp(inst, b.tr.op, false); warm.err != nil {
			fmt.Fprintf(stderr, "perfbench: warm-up op failed: %v\n", warm.err)
		}
		b.tr.end()
		setups = append(setups, start.elapsed())
	}
	defer inst.c.Close()
	if err := inst.snapshotBaseline(); err != nil {
		return nil, err
	}

	var ops []*opRecord
	deadline := time.Now().Add(time.Duration(o.seconds) * time.Second)
	for i := 0; i < minOps || time.Now().Before(deadline); i++ {
		rec := b.runOp(inst, i, o.trace && i%2 == 1)
		if rec.err != nil {
			fmt.Fprintf(stderr, "perfbench: op %d failed: %v\n", i, rec.err)
		}
		ops = append(ops, rec)
	}

	res := &result{report: report{Attempted: len(ops), Metrics: map[string]metric{}}}
	for _, op := range ops {
		if op.err != nil {
			res.report.Failed++
		}
	}
	res.report.Correct = res.report.Failed == 0
	if o.trace {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		// The span buffer grows with the op count; it is the harness's,
		// not the engines'.
		spanBytes := uint64(cap(b.tr.spans)) * uint64(unsafe.Sizeof(span{}))
		b.layerMetrics(res, ops, float64(ms.HeapAlloc-spanBytes)/mib, stderr)
		if err := writeSpans(filepath.Join(o.out, fmt.Sprintf("trace-%s-seed%d.jsonl", w.name, o.seed)), b.tr.spans); err != nil {
			return nil, err
		}
	} else {
		endToEnd(res, ops, inst.inputBytes, setups)
	}
	return res, nil
}

const mib = 1 << 20

// runOp runs one op: every step's Submit and deletes, then (untimed)
// verification, cleanup of the outputs, and the steady-state checks. A
// traced op also plans and replays each job; an untraced op records no
// spans, so it runs exactly as an op of an untraced run does.
func (b *bench) runOp(inst *instance, id int, traced bool) *opRecord {
	c := inst.c
	rec := &opRecord{id: id, traced: traced}
	tr := b.tr
	if !traced {
		on := tr.on
		tr.on = false
		defer func() { tr.on = on }()
	}
	tr.op = id
	steps := inst.steps()
	whole := now()
	tr.begin("op")
	for _, st := range steps {
		var plan *replayPlan
		var before usage
		if traced {
			// A replay leaves garbage behind; each traced job starts from a
			// collected heap, so its runtime figures are its own.
			runtime.GC()
			err := tr.do("plan", func() (err error) {
				plan, err = planReplay(c, st.eng, st.job)
				return err
			})
			if err != nil {
				rec.err = fmt.Errorf("replay plan: %w", err)
				break
			}
			before = takeUsage(c.Stats)
		}
		start := now()
		tr.begin(st.eng.Name() + ".Submit")
		rep, err := st.eng.Submit(st.job)
		tr.end()
		rec.spent.add(start.elapsed())
		if traced {
			rec.addUsage(before, takeUsage(c.Stats))
		}
		if err != nil {
			rec.err = err
			break
		}
		if traced {
			rec.addJob(rep)
			var res *replayResult
			err := tr.do("replay", func() (err error) {
				res, err = replay(c, plan, tr, b.scratch)
				return err
			})
			if err != nil {
				rec.err = fmt.Errorf("replay: %w", err)
				break
			}
			rec.runs += res.runs
			rec.resident += res.residentRuns
			if err := checkFidelity(rep.Counters, res.counters); err != nil && rec.diverged == nil {
				rec.diverged = fmt.Errorf("job %s: %w", st.job.JobName(), err)
			}
		}
		start = now()
		err = tr.do("delete", func() error { return deletePaths(inst.fs, st.deletes) })
		rec.spent.add(start.elapsed())
		if err != nil {
			rec.err = err
			break
		}
	}
	if traced {
		// The replay's last garbage is collected on the traced op's bill,
		// not on the next op's.
		runtime.GC()
	}
	tr.end()
	rec.whole = whole.elapsed()
	if rec.err == nil {
		rec.err = tr.do("verify", inst.verify)
	}
	// Cleanup runs after failures too, so one failed op does not fail the
	// next one's output check.
	err := tr.do("cleanup", func() error {
		paths := slices.Clone(inst.outputs)
		if rec.err != nil {
			for _, st := range steps {
				paths = append(paths, st.job.OutputPath())
				paths = append(paths, st.deletes...)
			}
		}
		return deletePaths(inst.fs, paths)
	})
	if rec.err == nil {
		rec.err = err
	}
	if rec.err == nil {
		rec.err = inst.checkSteady(steps)
	}
	return rec
}

// usage is what a traced op accounts around each Submit.
type usage struct {
	stats map[string]int64
	mem   runtime.MemStats
}

func takeUsage(stats *sim.Stats) usage {
	u := usage{stats: stats.Snapshot()}
	runtime.ReadMemStats(&u.mem)
	return u
}

// addUsage adds the difference between two usage snapshots to the op.
func (rec *opRecord) addUsage(before, after usage) {
	rec.alloc += after.mem.TotalAlloc - before.mem.TotalAlloc
	rec.mallocs += after.mem.Mallocs - before.mem.Mallocs
	rec.gcs += after.mem.NumGC - before.mem.NumGC
	if rec.stats == nil {
		rec.stats = map[string]int64{}
	}
	for _, k := range layerStats {
		rec.stats[k] += after.stats[k] - before.stats[k]
	}
}

func deletePaths(fs dfs.FileSystem, paths []string) error {
	for _, p := range paths {
		if fs.Exists(p) {
			if err := fs.Delete(p, true); err != nil {
				return err
			}
		}
	}
	return nil
}

// cost is the wall and CPU time a stretch of work took.
type cost struct{ wall, cpu time.Duration }

func (c *cost) add(d cost) { c.wall += d.wall; c.cpu += d.cpu }

// stamp marks the start of a stretch of work.
type stamp struct {
	wall time.Time
	cpu  time.Duration
}

func now() stamp { return stamp{time.Now(), cpuTime()} }

func (s stamp) elapsed() cost { return cost{time.Since(s.wall), cpuTime() - s.cpu} }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the process's user plus system CPU time, all threads.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}

// percentile returns the nearest-rank p-th percentile of sorted values.
func percentile(sorted []float64, p int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(float64(p) / 100 * float64(len(sorted))))
	return sorted[max(rank, 1)-1]
}

// median returns the middle value (mean of the two middle ones).
func median(values []float64) float64 {
	s := slices.Sorted(slices.Values(values))
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentile is the highest whole percentile that leaves at least ten
// samples beyond it, never below the median.
func tailPercentile(n int) int {
	for p := 99; p > 50; p-- {
		if n-int(math.Ceil(float64(p)/100*float64(n))) >= 10 {
			return p
		}
	}
	return 50
}

// endToEnd fills the untraced run's metrics. Op and set-up times are CPU
// time (see README.md); the table also prints their wall time. A failed op
// counts as slower than any successful one.
func endToEnd(res *result, ops []*opRecord, inputBytes int64, setups []cost) {
	var cpu, wall []float64
	var okCPU time.Duration
	ok := 0
	for _, op := range ops {
		if op.err != nil {
			cpu, wall = append(cpu, math.MaxFloat64), append(wall, math.MaxFloat64)
			continue
		}
		cpu, wall = append(cpu, ms(op.spent.cpu)), append(wall, ms(op.spent.wall))
		okCPU += op.spent.cpu
		ok++
	}
	slices.Sort(cpu)
	slices.Sort(wall)
	n := len(ops)
	p := tailPercentile(n)
	put := func(name string, v float64, unit, note string) {
		res.report.Metrics[name] = metric{Value: v, Unit: unit}
		res.summary = append(res.summary, fmt.Sprintf("%-20s %14.4f %-5s %s", name, v, unit, note))
	}
	note := func(name string, v float64, unit, note string) {
		res.summary = append(res.summary, fmt.Sprintf("%-20s %14.4f %-5s %s", name, v, unit, note))
	}
	put("op_cpu_ms_p50", median(cpu), "ms", fmt.Sprintf("p50 of %d ops", n))
	put("op_cpu_ms_tail", percentile(cpu, p), "ms", fmt.Sprintf("p%d of %d ops", p, n))
	tput := 0.0
	if okCPU > 0 {
		tput = float64(inputBytes) * float64(ok) / mib / okCPU.Seconds()
	}
	put("input_mb_per_cpu_s", tput, "MB/s", fmt.Sprintf("%.2f MiB input per op", float64(inputBytes)/mib))
	put("peak_rss_mb", peakRSSMB(), "MB", "")
	var setupCPU, setupWall []float64
	for _, c := range setups {
		setupCPU, setupWall = append(setupCPU, c.cpu.Seconds()), append(setupWall, c.wall.Seconds())
	}
	put("setup_s", median(setupCPU), "s", fmt.Sprintf("CPU time, median of %d set-ups", len(setups)))
	note("op_wall_ms_p50", median(wall), "ms", fmt.Sprintf("p50 of %d ops (wall time, not a metric)", n))
	note("op_wall_ms_tail", percentile(wall, p), "ms", fmt.Sprintf("p%d of %d ops (wall time, not a metric)", p, n))
	note("setup_wall_s", median(setupWall), "s", "wall time, not a metric")
	note("op_fail_ratio", float64(res.report.Failed)/float64(max(n, 1)), "", fmt.Sprintf("%d of %d ops failed", res.report.Failed, n))
}

// layerTimes maps per-layer time metrics to the replay span they sum.
var layerTimes = []struct{ metric, span string }{
	{"engine.map_ms", "engine.map"},
	{"engine.sort_ms", "engine.sort"},
	{"engine.combine_ms", "engine.combine"},
	{"engine.merge_ms", "engine.merge"},
	{"engine.reduce_ms", "engine.reduce"},
	{"x10.ship_ms", "x10.ship"},
	{"spill.encode_ms", "spill.encode"},
	{"spill.write_ms", "spill.write"},
	{"spill.read_ms", "spill.read"},
	{"m3r.cache_read_ms", "m3r.cache_read"},
	{"formats.read_ms", "formats.read"},
	{"formats.write_ms", "formats.write"},
}

// layerMetrics fills the traced run's metrics from the traced ops: layer
// self times per op from the replay spans, counts per op from the jobs'
// counters and sim.Stats deltas, and the tracing overhead against the
// interleaved untraced ops.
func (b *bench) layerMetrics(res *result, ops []*opRecord, retainedMB float64, stderr io.Writer) {
	var traced, untraced []*opRecord
	for _, op := range ops {
		switch {
		case op.err != nil:
		case op.traced:
			traced = append(traced, op)
		default:
			untraced = append(untraced, op)
		}
	}
	n := float64(max(len(traced), 1))
	put := func(name string, v float64, unit string) {
		res.report.Metrics[name] = metric{Value: v, Unit: unit}
		res.summary = append(res.summary, fmt.Sprintf("%-28s %14.4f %s", name, v, unit))
	}

	var diverged error
	ids := map[int]bool{}
	for _, op := range traced {
		ids[op.id] = true
		if diverged == nil {
			diverged = op.diverged
		}
	}
	if diverged != nil {
		// The replay did not reproduce the jobs: its layer times describe
		// some other work, so they are withheld.
		fmt.Fprintf(stderr, "perfbench: replay diverged, layer times withheld: %v\n", diverged)
	} else {
		self := selfTimes(b.tr.spans, ids)
		for _, lt := range layerTimes {
			put(lt.metric, ms(self[lt.span])/n, "ms")
		}
	}

	counter := func(name string) float64 {
		var s int64
		for _, op := range traced {
			s += op.counts[name]
		}
		return float64(s)
	}
	stat := func(name string) float64 {
		var s int64
		for _, op := range traced {
			s += op.stats[name]
		}
		return float64(s)
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	var m3rMs, hadoopMs []float64
	for _, op := range traced {
		m3rMs = append(m3rMs, op.m3rJobMs...)
		hadoopMs = append(hadoopMs, op.hadoopJobMs...)
	}
	var runs, resident float64
	var cpu time.Duration
	var alloc, mallocs, gcs float64
	for _, op := range traced {
		runs += float64(op.runs)
		resident += float64(op.resident)
		cpu += op.spent.cpu
		alloc += float64(op.alloc)
		mallocs += float64(op.mallocs)
		gcs += float64(op.gcs)
	}

	mapOut := counter(counters.MapOutputRecords)
	combined := counter(counters.CombineInputRecords) - counter(counters.CombineOutputRecords)
	put("engine.combine_ratio", ratio(mapOut-combined, mapOut), "ratio")
	put("engine.pool_contended_mb", counter(counters.PoolContendedBytes)/mib/n, "MB")
	put("engine.evicted_runs", counter(counters.EvictedResidentRuns)/n, "count")
	local := counter(counters.LocalShufflePairs)
	remote := counter(counters.RemoteShufflePairs)
	put("x10.remote_mb", stat(sim.RemoteBytes)/mib/n, "MB")
	put("x10.dedup_hits", counter(counters.DedupHits)/n, "count")
	put("x10.remote_pair_share", ratio(remote, local+remote), "ratio")
	put("spill.mb", stat(sim.SpillBytes)/mib/n, "MB")
	put("spill.resident_share", ratio(resident, runs), "ratio")
	put("m3r.job_ms_p50", median(m3rMs), "ms")
	hits := counter(counters.CacheHitSplits)
	put("m3r.cache_hit_ratio", ratio(hits, hits+counter(counters.CacheMissSplits)), "ratio")
	put("dfs.read_mb", stat(sim.HDFSReadBytes)/mib/n, "MB")
	put("hadoop.job_ms_p50", median(hadoopMs), "ms")
	put("hadoop.shuffle_fetch_mb", stat(sim.ShuffleFetchBytes)/mib/n, "MB")
	put("sim.modeled_ms_per_op", stat(sim.ModeledDelayNs)/1e6/n, "ms")
	put("runtime.cpu_ms_per_op", ms(cpu)/n, "ms")
	put("runtime.alloc_mb_per_op", alloc/mib/n, "MB")
	put("runtime.allocs_per_op", mallocs/n, "count")
	put("runtime.gc_cycles_per_op", gcs/n, "count")
	put("runtime.retained_heap_mb", retainedMB, "MB")
	// The overhead compares whole ops, CPU time as in op_cpu_ms_p50: a
	// traced op with all that tracing adds to it against an untraced op,
	// which runs as in an untraced run.
	var tracedMs, untracedMs []float64
	for _, op := range traced {
		tracedMs = append(tracedMs, ms(op.whole.cpu))
	}
	for _, op := range untraced {
		untracedMs = append(untracedMs, ms(op.whole.cpu))
	}
	put("trace.overhead_ratio", ratio(median(tracedMs), median(untracedMs)), "ratio")
	res.summary = append(res.summary, fmt.Sprintf("(%d traced and %d untraced ops)", len(traced), len(untraced)))
}
