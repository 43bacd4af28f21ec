package main

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"m3r/internal/counters"
	"m3r/internal/lab"
	"m3r/internal/matrix"
	"m3r/internal/sim"
	"m3r/internal/wordcount"
)

func TestSparseReferenceMatchesDense(t *testing.T) {
	cfg := matrix.Config{RowBlocks: 3, ColBlocks: 3, BlockSize: 20, Sparsity: 0.05, Partitions: 2, Dir: "/x", Seed: 7}
	want := matrix.ReferenceMultiply(cfg, 3)
	got := sparseReference(cfg, 3)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d: sparse %v, dense %v", i, got[i], want[i])
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct{ n, p int }{{10, 50}, {20, 50}, {23, 56}, {57, 82}, {415, 97}, {2000, 99}} {
		if got := tailPercentile(tc.n); got != tc.p {
			t.Errorf("tailPercentile(%d) = %d, want %d", tc.n, got, tc.p)
		}
	}
}

// The engines must see the cost model only through sim.CostModel.Charge*:
// no package outside internal/sim reads a delay field or Sleep. That is
// what makes real-work mode (sim.Default delays, Sleep=false) run exactly
// the engine code a sleeping cost model runs.
func TestEnginesReadCostModelOnlyThroughCharge(t *testing.T) {
	fields := map[string]bool{"JVMStartup": true, "Heartbeat": true, "NetLatency": true,
		"NetBytesPerSec": true, "DiskBytesPerSec": true, "Sleep": true}
	root := filepath.Join("..", "internal")
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == "sim" || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || !fields[sel.Sel.Name] {
				return true
			}
			if id, ok := sel.X.(*ast.Ident); ok && id.Name == "time" {
				return true // time.Sleep
			}
			t.Errorf("%s: reads cost model field %s outside sim.CostModel.Charge*", fset.Position(sel.Pos()), sel.Sel.Name)
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// recordCounters are the counters that describe the work a job did, as
// opposed to how its tasks were scheduled.
var recordCounters = []struct{ group, name string }{
	{counters.TaskGroup, counters.MapInputRecords},
	{counters.TaskGroup, counters.MapOutputRecords},
	{counters.TaskGroup, counters.MapOutputBytes},
	{counters.TaskGroup, counters.CombineInputRecords},
	{counters.TaskGroup, counters.CombineOutputRecords},
	{counters.TaskGroup, counters.SpilledRecords},
	{counters.TaskGroup, counters.ReduceShuffleBytes},
	{counters.TaskGroup, counters.ReduceInputGroups},
	{counters.TaskGroup, counters.ReduceInputRecords},
	{counters.TaskGroup, counters.ReduceOutputRecords},
	{counters.JobGroup, counters.TotalLaunchedMaps},
	{counters.JobGroup, counters.TotalLaunchedReduces},
}

// Real-work mode accounts the modelled cluster without sleeping it and
// leaves the job's work unchanged: the wordcount-hadoop job reports the
// same counters as on a zero-cost cluster, with modelled delay accounted.
func TestRealWorkModeAccountsWithoutChangingWork(t *testing.T) {
	run := func(cost *sim.CostModel) (*counters.Counters, int64) {
		c, err := lab.New(lab.Options{Nodes: places, ShuffleBudgetBytes: -1, CacheBudgetBytes: -1, Cost: cost, Dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := wordcount.Generate(c.FS, "/in", wcInputBytes, 5); err != nil {
			t.Fatal(err)
		}
		before := c.Stats.Get(sim.ModeledDelayNs)
		rep, err := c.Hadoop.Submit(wordcount.NewJob("/in", "/out", wcReducers, true))
		if err != nil {
			t.Fatal(err)
		}
		return rep.Counters, c.Stats.Get(sim.ModeledDelayNs) - before
	}
	real, modeled := run(realWork())
	zero, zeroModeled := run(sim.Zero())
	if modeled <= 0 || zeroModeled != 0 {
		t.Errorf("modelled delay: real-work %d ns, zero-cost %d ns; want >0 and 0", modeled, zeroModeled)
	}
	for _, rc := range recordCounters {
		if a, b := real.Value(rc.group, rc.name), zero.Value(rc.group, rc.name); a != b || a == 0 {
			t.Errorf("%s: real-work %d, zero-cost %d", rc.name, a, b)
		}
	}
}

// Every workload's outputs verify, its ops leave the steady state intact,
// and the traced replay reproduces every job's record counts.
func TestWorkloadsVerifyAndReplayFaithfully(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			scratch := t.TempDir()
			b := &bench{tr: newTracer(true), scratch: scratch}
			inst, err := w.setup(filepath.Join(scratch, "cluster"), 3, b.tr)
			if err != nil {
				t.Fatal(err)
			}
			defer inst.c.Close()
			if rec := b.runOp(inst, -1, false); rec.err != nil {
				t.Fatalf("warm-up op: %v", rec.err)
			}
			if err := inst.snapshotBaseline(); err != nil {
				t.Fatal(err)
			}
			rec := b.runOp(inst, 0, true)
			if rec.err != nil {
				t.Fatalf("traced op: %v", rec.err)
			}
			if rec.diverged != nil {
				t.Fatalf("replay diverged: %v", rec.diverged)
			}
			if rec.runs == 0 {
				t.Error("replay formed no shuffle runs")
			}
		})
	}
}

// benchmarkFile is the part of BENCHMARK.json the harness must honour.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// The command prints, as its last line, exactly the metrics BENCHMARK.json
// declares for the mode, with their units.
func TestOutputMatchesBenchmarkFile(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	for _, wl := range bf.Workloads {
		if _, ok := findWorkload(wl.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", wl.Name)
		}
	}
	for trace, want := range map[string][]struct{ Name, Unit string }{"0": bf.EndToEnd, "1": bf.PerLayer} {
		var stdout, stderr bytes.Buffer
		args := []string{"--workload", "matvec", "--seed", "2", "--seconds", "1", "--trace", trace, "--out", t.TempDir()}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("trace %s: exit %d: %s", trace, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var rep report
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
			t.Fatalf("trace %s: last line: %v", trace, err)
		}
		if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
			t.Errorf("trace %s: correct=%v attempted=%d failed=%d", trace, rep.Correct, rep.Attempted, rep.Failed)
		}
		if len(rep.Metrics) != len(want) {
			t.Errorf("trace %s: %d metrics, BENCHMARK.json declares %d", trace, len(rep.Metrics), len(want))
		}
		for _, m := range want {
			if got, ok := rep.Metrics[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("trace %s: metric %s = %+v, want unit %q", trace, m.Name, got, m.Unit)
			}
		}
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "nosuch"}, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
		t.Errorf("exit %d, stdout %q", code, stdout.String())
	}
}
