package m3r

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"

	"m3r/internal/conf"
	"m3r/internal/counters"
	"m3r/internal/dfs"
	"m3r/internal/engine"
	"m3r/internal/sim"
	"m3r/internal/spill"
	"m3r/internal/types"
	"m3r/internal/wio"
	"m3r/internal/wordcount"
)

// swapSpillWrite installs a fault-injecting spill write for one test and
// restores the real one afterwards.
func swapSpillWrite(t *testing.T, fn func(string, spill.EncodedRun) (int64, error)) {
	t.Helper()
	orig := spillWriteRun
	spillWriteRun = fn
	t.Cleanup(func() { spillWriteRun = orig })
}

// newFaultEngine builds a pooled M3R engine (a roomy 1 MiB pool per place,
// so the job's cap governs) over a scratch HDFS with wordcount data at
// /data/t, for driving whole jobs through the spill path.
func newFaultEngine(t *testing.T, places int) *Engine {
	t.Helper()
	backing, err := dfs.NewHDFS(dfs.HDFSOptions{Root: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Options{Backing: backing, Places: places, Stats: sim.NewStats(), ShuffleBudgetBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	if err := wordcount.Generate(backing, "/data/t", 64<<10, 11); err != nil {
		t.Fatal(err)
	}
	return e
}

// spillingJob returns a WordCount job capped at jobCap bytes per place
// within the engine pool: 1 spills every run; faultJobCap keeps some runs
// resident and spills the rest.
func spillingJob(out string, jobCap int64) *conf.JobConf {
	job := wordcount.NewJob("/data/t", out, 3, true)
	job.SetInt64(conf.KeyM3RShuffleBudget, jobCap)
	return job
}

// faultJobCap is the per-job cap the spill fault tests run under: tight
// enough that runs spill, roomy enough that earlier runs sit resident
// in the pool when the fault lands, so the drain-to-zero check has bytes to
// drain. requireMixedSpill pins that geometry.
const faultJobCap = 2 << 10

// requireMixedSpill runs the fault tests' job fault-free on e and fails the
// test unless it both spills at least two runs and keeps some resident.
func requireMixedSpill(t *testing.T, e *Engine) {
	t.Helper()
	rep, err := e.Submit(spillingJob("/out/geometry", faultJobCap))
	if err != nil {
		t.Fatal(err)
	}
	spilled := rep.Counters.Value(counters.M3RGroup, counters.SpilledRuns)
	released := rep.Counters.Value(counters.M3RGroup, counters.BudgetReleasedBytes)
	if spilled < 2 || released == 0 {
		t.Fatalf("test geometry broken: %d spilled runs, %d resident bytes released", spilled, released)
	}
}

// scopeSpillDirs points the process temp dir at a fresh per-test root, so
// the engine's spill scratch dirs land there and engines in other test
// packages cannot show up in leftoverSpillDirs. Call it before the engine
// is built.
func scopeSpillDirs(t *testing.T) string {
	root := t.TempDir()
	t.Setenv("TMPDIR", root)
	return root
}

// leftoverSpillDirs counts m3r spill scratch directories still under root.
func leftoverSpillDirs(t *testing.T, root string) int {
	t.Helper()
	m, err := filepath.Glob(filepath.Join(root, "m3r-spill-*"))
	if err != nil {
		t.Fatal(err)
	}
	return len(m)
}

// assertSpillTeardown checks what every failed spilling job must leave
// behind: nothing. No open spill stream, no pooled encode buffer checked
// out, no spill scratch dir, and no byte held in the engine pool.
func assertSpillTeardown(t *testing.T, e *Engine, root string, streamBase, bufBase int64) {
	t.Helper()
	if got := spill.OpenStreamCount(); got != streamBase {
		t.Errorf("OpenStreamCount %d, baseline %d: leaked spill streams", got, streamBase)
	}
	if got := encodeBufsOut.Load(); got != bufBase {
		t.Errorf("encode buffers out %d, baseline %d: leaked pooled buffers", got, bufBase)
	}
	if n := leftoverSpillDirs(t, root); n != 0 {
		t.Errorf("%d spill scratch dirs left behind", n)
	}
	if held := e.ShufflePoolHeldBytes(); held != 0 {
		t.Errorf("pool holds %d bytes after the failed job", held)
	}
}

// TestSpillWorkerWriteErrorFailsJob injects a hard io failure into the
// second spill write, made inline by the place worker running the flushing
// map task: the task fails, and with it the job, carrying the injected
// error; nothing is left behind.
func TestSpillWorkerWriteErrorFailsJob(t *testing.T) {
	root := scopeSpillDirs(t)
	e := newFaultEngine(t, 2)
	requireMixedSpill(t, e)

	injected := errors.New("injected spill device error")
	var calls atomic.Int64
	swapSpillWrite(t, func(path string, enc spill.EncodedRun) (int64, error) {
		if calls.Add(1) == 2 {
			return 0, injected
		}
		return spill.WriteEncodedFile(path, enc)
	})
	streamBase, bufBase := spill.OpenStreamCount(), encodeBufsOut.Load()
	_, err := e.Submit(spillingJob("/out/wc", faultJobCap))
	if err == nil {
		t.Fatal("job with a failing spill write succeeded")
	}
	if !errors.Is(err, injected) {
		t.Fatalf("job error does not carry the injected failure: %v", err)
	}
	assertSpillTeardown(t, e, root, streamBase, bufBase)
}

// TestSpillWorkerDiskFullFailsJob simulates the disk filling mid-run-file:
// the first inline spill write leaves a truncated file and reports ENOSPC.
// The job must fail with ENOSPC, remote-shuffle encode buffers must return
// to the pool (the failure crosses the map flush path of a multi-place
// shuffle), and the partial spill file must be cleaned up with the job.
func TestSpillWorkerDiskFullFailsJob(t *testing.T) {
	root := scopeSpillDirs(t)
	e := newFaultEngine(t, 2)
	requireMixedSpill(t, e)

	var calls atomic.Int64
	swapSpillWrite(t, func(path string, enc spill.EncodedRun) (int64, error) {
		if calls.Add(1) == 1 {
			os.WriteFile(path, []byte("partial run"), 0o644)
			return 0, fmt.Errorf("write %s: %w", path, syscall.ENOSPC)
		}
		return spill.WriteEncodedFile(path, enc)
	})
	streamBase, bufBase := spill.OpenStreamCount(), encodeBufsOut.Load()
	_, err := e.Submit(spillingJob("/out/wc", faultJobCap))
	if err == nil {
		t.Fatal("job with full disk succeeded")
	}
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("job error does not carry ENOSPC: %v", err)
	}
	assertSpillTeardown(t, e, root, streamBase, bufBase)
}

// TestSpillWorkerPanicDoesNotHang: a panic under the inline spill write
// unwinds the place worker's flushing map task into its recover, which
// fails the job with the panic; Submit returns and nothing is left behind.
func TestSpillWorkerPanicDoesNotHang(t *testing.T) {
	root := scopeSpillDirs(t)
	e := newFaultEngine(t, 2)
	requireMixedSpill(t, e)

	swapSpillWrite(t, func(path string, enc spill.EncodedRun) (int64, error) {
		panic("simulated corruption in the spill encoder")
	})
	streamBase, bufBase := spill.OpenStreamCount(), encodeBufsOut.Load()
	_, err := e.Submit(spillingJob("/out/wc", faultJobCap))
	if err == nil {
		t.Fatal("job with a panicking spill write succeeded")
	}
	if !strings.Contains(err.Error(), "panicked: simulated corruption in the spill encoder") {
		t.Fatalf("panic not surfaced as a map task failure: %v", err)
	}
	assertSpillTeardown(t, e, root, streamBase, bufBase)
}

// --- white-box lifecycle: admission, spill, release ---

// newSpillExec builds a minimal one-place jobExec for exercising the
// partitionInput lifecycle without a cluster.
func newSpillExec(budget int64, codec spill.Codec) *jobExec {
	e := &Engine{stats: sim.NewStats(), cost: sim.Zero()}
	x := &jobExec{e: e, jobID: "job_test_0001", jc: counters.New(),
		shuffleBudget: budget, codec: codec}
	if budget > 0 {
		x.budgets = []*engine.JobBudget{engine.NewBudgetPool(budget).Job(x.jobID, 0)}
		x.resident = []*residentSet{newResidentSet()}
	}
	return x
}

// textRun builds a sorted run of (prefix###, i) pairs.
func textRun(prefix string, n int) []wio.Pair {
	out := make([]wio.Pair, n)
	for i := range out {
		out[i] = wio.Pair{Key: types.NewText(fmt.Sprintf("%s%04d", prefix, i)), Value: types.NewInt(int32(i))}
	}
	return out
}

// drainMerge merges readers and returns the marshaled (key,value) stream,
// asserting the accountant ends the merge with zero bytes held.
func drainMerge(t *testing.T, x *jobExec, readers []engine.RunReader) []string {
	t.Helper()
	m, err := engine.NewMergeIter(readers, wio.NaturalOrder{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	var out []string
	for {
		p, ok, err := m.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		kb, _ := wio.Marshal(p.Key)
		vb, _ := wio.Marshal(p.Value)
		out = append(out, string(kb)+"\x00"+string(vb))
	}
}

// TestBudgetReleaseDuringReduce walks the lifecycle deterministically: a
// resident run fills the budget, later runs spill, and draining the first
// partition releases its bytes (BUDGET_RELEASED_BYTES). The next
// partition's spilled run stays on disk even with the budget free — it
// stream-decodes, holds no reservation, and merges byte-identically to the
// unbudgeted run.
func TestBudgetReleaseDuringReduce(t *testing.T) {
	runA, runB, runC := textRun("a", 40), textRun("b", 40), textRun("c", 40)
	_, _, _, size, err := encodeRun(runA)
	if err != nil {
		t.Fatal(err)
	}

	// Reference: what partition 2's merge must yield, from an unbudgeted run.
	ref := newSpillExec(0, spill.CodecNone)
	refPi := &partitionInput{x: ref, place: 0}
	ctx := engine.NewTaskContext(conf.NewJob(), "task", nil)
	if err := refPi.addRun(ctx, 0, textRun("c", 40)); err != nil {
		t.Fatal(err)
	}
	refReaders, err := refPi.takeReaders(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want := drainMerge(t, ref, refReaders)

	x := newSpillExec(size, spill.CodecNone) // budget = exactly one run
	defer x.cleanup()
	pi1 := &partitionInput{x: x, place: 0}
	pi2 := &partitionInput{x: x, place: 0}
	if err := pi1.addRun(ctx, 0, runA); err != nil { // resident, fills budget
		t.Fatal(err)
	}
	if err := pi1.addRun(ctx, 1, runB); err != nil { // overflows: spills
		t.Fatal(err)
	}
	if err := pi2.addRun(ctx, 0, runC); err != nil { // overflows: spills
		t.Fatal(err)
	}
	if got := ctx.Cells.SpilledRuns.Value(); got != 2 {
		t.Fatalf("SpilledRuns=%d want 2", got)
	}
	if got := x.budgets[0].Held(); got != size {
		t.Fatalf("held=%d want %d after collect", got, size)
	}

	// Partition 1 reduces: B stream-decodes; draining the merge releases A's
	// reservation.
	streamBase := spill.OpenStreamCount()
	r1, err := pi1.takeReaders(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := spill.OpenStreamCount(); got != streamBase+1 {
		t.Fatalf("OpenStreamCount=%d want %d: run B should be stream-backed", got, streamBase+1)
	}
	if got := len(drainMerge(t, x, r1)); got != 80 {
		t.Fatalf("partition 1 merged %d pairs, want 80", got)
	}
	if got := x.budgets[0].Held(); got != 0 {
		t.Fatalf("held=%d want 0 after partition 1 drained", got)
	}
	if got := ctx.Cells.BudgetReleasedBytes.Value(); got != size {
		t.Fatalf("BudgetReleasedBytes=%d want %d", got, size)
	}

	// Partition 2 opens with the budget free: C still stream-decodes off
	// disk, reserves nothing, and merges byte-identically.
	r2, err := pi2.takeReaders(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := spill.OpenStreamCount(); got != streamBase+1 {
		t.Fatalf("OpenStreamCount=%d want %d: run C should be stream-backed", got, streamBase+1)
	}
	if got := x.budgets[0].Held(); got != 0 {
		t.Fatalf("held=%d want 0: a spilled run holds no reservation", got)
	}
	got := drainMerge(t, x, r2)
	if len(got) != len(want) {
		t.Fatalf("spilled merge %d pairs vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("pair %d differs from the unbudgeted merge", i)
		}
	}
	if got := spill.OpenStreamCount(); got != streamBase {
		t.Fatalf("OpenStreamCount=%d want %d after everything drained", got, streamBase)
	}
	if rel := ctx.Cells.BudgetReleasedBytes.Value(); rel != size {
		t.Fatalf("BudgetReleasedBytes=%d want %d", rel, size)
	}
}

// FuzzInlineSpill feeds fuzzer-shaped runs through the budgeted admission
// and inline spill path at a fuzzer-chosen budget and spill codec, and pins
// the invariants the path promises at every setting: the merged stream is
// byte-identical to the unbudgeted in-memory run, no spill stream stays
// open, and the pool returns to zero once the merge drains.
func FuzzInlineSpill(f *testing.F) {
	f.Add([]byte("the quick brown fox jumps over the lazy dog"), uint8(3), uint8(64), false)
	f.Add([]byte("aaaa bbbb aaaa cccc"), uint8(5), uint8(4), true)
	f.Add([]byte(""), uint8(1), uint8(0), false)
	f.Add([]byte("pad pad pad compress me compress me"), uint8(2), uint8(16), true)
	f.Fuzz(func(t *testing.T, data []byte, nruns, budgetScale uint8, flate bool) {
		runs := int(nruns%6) + 1
		budget := int64(budgetScale) * 8
		codec := spill.CodecNone
		if flate {
			codec = spill.CodecFlate
		}

		// Slice the fuzz bytes into `runs` sorted runs of Text/Int pairs.
		words := strings.Fields(string(data))
		mkRuns := func() [][]wio.Pair {
			out := make([][]wio.Pair, runs)
			for i, w := range words {
				r := i % runs
				out[r] = append(out[r], wio.Pair{Key: types.NewText(w), Value: types.NewInt(int32(i))})
			}
			for _, pairs := range out {
				engine.SortPairs(pairs, wio.NaturalOrder{})
			}
			return out
		}

		drive := func(budget int64, codec spill.Codec) []string {
			x := newSpillExec(budget, codec)
			defer x.cleanup()
			pi := &partitionInput{x: x, place: 0}
			ctx := engine.NewTaskContext(conf.NewJob(), "task", nil)
			for src, pairs := range mkRuns() {
				if err := pi.addRun(ctx, src, pairs); err != nil {
					t.Fatal(err)
				}
			}
			readers, err := pi.takeReaders(ctx)
			if err != nil {
				t.Fatal(err)
			}
			out := drainMerge(t, x, readers)
			engine.CloseAllOnErr(readers) // idempotent: everything is drained
			if x.budgets != nil {
				if held := x.budgets[0].Held(); held != 0 {
					t.Fatalf("held=%d after full drain", held)
				}
			}
			return out
		}

		streamBase := spill.OpenStreamCount()
		want := drive(0, spill.CodecNone) // unbudgeted in-memory reference
		got := drive(budget, codec)
		if len(got) != len(want) {
			t.Fatalf("budget=%d codec=%s: %d pairs vs %d", budget, codec, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("budget=%d codec=%s: pair %d differs", budget, codec, i)
			}
		}
		if n := spill.OpenStreamCount(); n != streamBase {
			t.Fatalf("OpenStreamCount=%d baseline %d", n, streamBase)
		}
	})
}

// TestCompressedSpillChargesStoredBytes pins the codec's accounting
// contract end to end: with flate configured, SPILLED_BYTES counts the
// stored (compressed) bytes and SPILLED_RAW_BYTES the raw record-format
// bytes (so stored < raw on repetitive runs); the budget, however, keeps
// accounting in raw in-memory sizes — a resident run reserves its full raw
// size under either codec — and the merge output stays byte-identical to
// the raw-codec lifecycle.
func TestCompressedSpillChargesStoredBytes(t *testing.T) {
	_, _, _, size, err := encodeRun(textRun("aaaa", 40))
	if err != nil {
		t.Fatal(err)
	}

	// Reference: the raw-codec lifecycle at identical settings.
	drive := func(codec spill.Codec) ([]string, *engine.TaskContext, *jobExec) {
		x := newSpillExec(size, codec) // budget = exactly one run
		pi1 := &partitionInput{x: x, place: 0}
		pi2 := &partitionInput{x: x, place: 0}
		ctx := engine.NewTaskContext(conf.NewJob(), "task", nil)
		if err := pi1.addRun(ctx, 0, textRun("aaaa", 40)); err != nil { // resident
			t.Fatal(err)
		}
		if held := x.budgets[0].Held(); held != size {
			t.Fatalf("codec %s: resident run holds %d budget bytes, want raw size %d", codec, held, size)
		}
		if err := pi2.addRun(ctx, 0, textRun("cccc", 40)); err != nil { // spills
			t.Fatal(err)
		}
		r1, err := pi1.takeReaders(ctx)
		if err != nil {
			t.Fatal(err)
		}
		out := drainMerge(t, x, r1)
		r2, err := pi2.takeReaders(ctx)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, drainMerge(t, x, r2)...)
		return out, ctx, x
	}

	want, refCtx, refX := drive(spill.CodecNone)
	defer refX.cleanup()
	got, ctx, x := drive(spill.CodecFlate)
	defer x.cleanup()

	if len(got) != len(want) {
		t.Fatalf("flate lifecycle yielded %d pairs, raw yielded %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("pair %d differs between flate and raw lifecycles", i)
		}
	}
	stored, raw := ctx.Cells.SpilledBytes.Value(), ctx.Cells.SpilledRawBytes.Value()
	if raw == 0 || stored == 0 {
		t.Fatalf("spill accounting silent: stored=%d raw=%d", stored, raw)
	}
	if stored >= raw {
		t.Fatalf("flate spill stored %d bytes >= raw %d on repetitive keys", stored, raw)
	}
	if refStored, refRaw := refCtx.Cells.SpilledBytes.Value(), refCtx.Cells.SpilledRawBytes.Value(); refStored != refRaw {
		t.Fatalf("codec none: stored %d != raw %d — raw layout must charge identical numbers", refStored, refRaw)
	}
	// The engine's stats and disk cost follow the stored bytes.
	if got := x.e.stats.Get(sim.SpillBytes); got != stored {
		t.Fatalf("sim spill.bytes=%d, counters say %d", got, stored)
	}
	if got := x.e.stats.Get(sim.SpillRawBytes); got != raw {
		t.Fatalf("sim spill.raw.bytes=%d, counters say %d", got, raw)
	}
}
