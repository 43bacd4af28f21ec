package m3r

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"m3r/internal/engine"
	"m3r/internal/sim"
	"m3r/internal/spill"
)

// TestKillDuringSpillWrite blocks a map task inside its inline spill write,
// kills the job while the write is in flight, and checks the kill wins: the
// job returns ErrJobKilled, the in-flight write is allowed to finish (no
// torn run files), later spills are skipped, and streams, pooled buffers,
// scratch dirs and the pool all return to baseline.
func TestKillDuringSpillWrite(t *testing.T) {
	reached := make(chan struct{})
	release := make(chan struct{})
	var first atomic.Bool
	swapSpillWrite(t, func(path string, enc spill.EncodedRun) (int64, error) {
		// Only the first write anywhere blocks, so the kill lands while the
		// other map tasks still have spills ahead of them.
		if first.CompareAndSwap(false, true) {
			close(reached)
			<-release
		}
		return spill.WriteEncodedFile(path, enc)
	})

	root := scopeSpillDirs(t)
	e := newFaultEngine(t, 2)
	streamBase, bufBase := spill.OpenStreamCount(), encodeBufsOut.Load()

	lc := engine.NewJobLifecycle()
	errCh := make(chan error, 1)
	go func() {
		_, err := e.SubmitControlled(spillingJob("/out/killspill", 1), lc)
		errCh <- err
	}()
	select {
	case <-reached:
	case err := <-errCh:
		t.Fatalf("job finished before any spill write: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("no map task reached a spill write")
	}
	lc.Kill(engine.ErrJobKilled)
	close(release)

	var err error
	select {
	case err = <-errCh:
	case <-time.After(30 * time.Second):
		t.Fatal("killed job never terminated")
	}
	if !errors.Is(err, engine.ErrJobKilled) {
		t.Fatalf("job error = %v, want ErrJobKilled", err)
	}
	if got := e.Stats().Get(sim.JobsKilled); got != 1 {
		t.Errorf("jobs.killed = %d, want 1", got)
	}
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
		t.Errorf("pool holds %d bytes after the killed job", held)
	}
}
