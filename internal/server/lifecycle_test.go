package server

import (
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"m3r/internal/conf"
	"m3r/internal/counters"
	"m3r/internal/engine"
)

// controlledEngine implements engine.LifecycleSubmitter with jobs that run
// until their lifecycle is cancelled (or release closes), so kill and
// shutdown paths can be driven deterministically without a cluster.
type controlledEngine struct {
	started chan struct{} // signalled once per submission start
	release chan struct{} // closing it completes running jobs successfully
}

func (e *controlledEngine) Name() string       { return "stub" }
func (e *controlledEngine) FileSystem() string { return "stub-fs" }
func (e *controlledEngine) Close() error       { return nil }

func (e *controlledEngine) Submit(job *conf.JobConf) (*engine.Report, error) {
	return e.SubmitControlled(job, nil)
}

func (e *controlledEngine) SubmitControlled(job *conf.JobConf, lc *engine.JobLifecycle) (*engine.Report, error) {
	if e.started != nil {
		e.started <- struct{}{}
	}
	select {
	case <-lc.Done():
		return nil, fmt.Errorf("stub: %w", lc.Err())
	case <-e.release:
		return &engine.Report{JobID: "stub", Engine: "stub", Counters: counters.New()}, nil
	}
}

var _ engine.LifecycleSubmitter = (*controlledEngine)(nil)

// TestServerKillRPC drives the kill verb end to end: a running async job is
// killed, reaches the distinct terminal StateKilled with its cause, stays
// pollable, and re-kill / unknown-id kills answer with the right states.
func TestServerKillRPC(t *testing.T) {
	eng := &controlledEngine{started: make(chan struct{}, 1), release: make(chan struct{})}
	srv, err := Serve(eng, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer close(eng.release)
	client, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}

	id, err := client.SubmitAsync(conf.NewJob())
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-eng.started:
	case <-time.After(5 * time.Second):
		t.Fatal("job never started")
	}
	state, err := client.Kill(id)
	if err != nil || state != StateRunning {
		t.Fatalf("kill answered state %q err=%v, want running", state, err)
	}
	st, err := client.WaitFor(id, time.Millisecond, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateKilled {
		t.Fatalf("killed job polls as %q", st.State)
	}
	if !strings.Contains(st.Err, engine.ErrJobKilled.Error()) {
		t.Fatalf("killed job error %q does not carry the kill cause", st.Err)
	}
	// Killing a terminal job is a no-op that reports the terminal state.
	state, err = client.Kill(id)
	if err != nil || state != StateKilled {
		t.Fatalf("re-kill answered %q err=%v", state, err)
	}
	// An id the server never saw kills as unknown, like poll.
	state, err = client.Kill("remote_job_9999")
	if err != nil || state != StateUnknown {
		t.Fatalf("unknown-id kill answered %q err=%v", state, err)
	}
	// The killed state is retained and listed like any terminal state.
	listed, err := client.ListJobs()
	if err != nil || len(listed) != 1 || listed[0].State != StateKilled {
		t.Fatalf("list after kill: %+v err=%v", listed, err)
	}
}

// TestServerShutdownKillsAfterGrace: Shutdown gives running jobs its grace
// period, then cancels them and drains — bounded by task unwind, not job
// runtime (the stub's "job" would otherwise run forever).
func TestServerShutdownKillsAfterGrace(t *testing.T) {
	eng := &controlledEngine{started: make(chan struct{}, 1), release: make(chan struct{})}
	srv, err := Serve(eng, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	id, err := client.SubmitAsync(conf.NewJob())
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-eng.started:
	case <-time.After(5 * time.Second):
		t.Fatal("job never started")
	}

	done := make(chan error, 1)
	go func() { done <- srv.Shutdown(20 * time.Millisecond) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown never drained a kill-terminated job")
	}
	srv.mu.Lock()
	state := srv.jobs[id].state
	srv.mu.Unlock()
	if state != StateKilled {
		t.Fatalf("job state after shutdown = %q, want killed", state)
	}
}

// TestServerShutdownWaitsForFastJobs: a job that finishes within the grace
// period completes normally; shutdown never kills it.
func TestServerShutdownWaitsForFastJobs(t *testing.T) {
	eng := &controlledEngine{started: make(chan struct{}, 1), release: make(chan struct{})}
	srv, err := Serve(eng, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	id, err := client.SubmitAsync(conf.NewJob())
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-eng.started:
	case <-time.After(5 * time.Second):
		t.Fatal("job never started")
	}
	close(eng.release) // the job can now finish on its own
	if err := srv.Shutdown(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	srv.mu.Lock()
	state := srv.jobs[id].state
	srv.mu.Unlock()
	if state != StateSucceeded {
		t.Fatalf("job state after graceful shutdown = %q, want succeeded", state)
	}
}

// flakyListener fails its first few Accepts with a transient error before
// delegating to the real listener.
type flakyListener struct {
	net.Listener
	remaining atomic.Int32
}

func (l *flakyListener) Accept() (net.Conn, error) {
	if l.remaining.Add(-1) >= 0 {
		return nil, fmt.Errorf("accept: transient resource exhaustion")
	}
	return l.Listener.Accept()
}

// TestAcceptLoopSurvivesTransientErrors: transient accept failures must not
// retire the accept loop — it backs off, retries, and still serves.
func TestAcceptLoopSurvivesTransientErrors(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := &flakyListener{Listener: ln}
	fl.remaining.Store(3)
	srv := serveListener(&stubEngine{}, fl, Options{})
	defer srv.Close()

	// Dial performs an fs-id round trip; it only succeeds if the accept
	// loop outlived the injected failures.
	client, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatalf("server unreachable after transient accept errors: %v", err)
	}
	if client.FileSystem() != "stub-fs" {
		t.Fatalf("fs id %q", client.FileSystem())
	}
	if got := fl.remaining.Load(); got >= 0 {
		t.Fatalf("accept fault never consumed (remaining %d)", got)
	}
}

// TestConnectionReadDeadline: a client that connects and never sends a
// request is disconnected once the I/O deadline lapses, instead of pinning
// a handler goroutine forever.
func TestConnectionReadDeadline(t *testing.T) {
	srv, err := ServeWithOptions(&stubEngine{}, "127.0.0.1:0", Options{IOTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("server answered a request that was never sent")
	}
	// The handler has exited; Close must not hang on it.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}
