// Server mode (paper §5.3): start an M3R server speaking the jobtracker
// protocol on localhost TCP, then submit jobs to it through a client that
// implements the same Engine interface as a local engine — "it is possible
// to simply replace the Hadoop server daemon with the M3R one".
//
// Run with:
//
//	go run ./examples/servermode
package main

import (
	"fmt"
	"log"
	"time"

	"m3r/internal/lab"
	"m3r/internal/server"
	"m3r/internal/wordcount"
)

func main() {
	// The engine-scoped shuffle pool: every job this server runs —
	// including concurrent async submissions — reserves shuffle memory
	// from one 256 KiB-per-place pool instead of each claiming its own
	// budget; under contention the largest resident runs spill first.
	cluster, err := lab.New(lab.Options{Nodes: 2, ShuffleBudgetBytes: 256 << 10})
	if err != nil {
		log.Fatalf("building cluster: %v", err)
	}
	defer cluster.Close()
	if err := wordcount.Generate(cluster.FS, "/data/text", 1<<20, 3); err != nil {
		log.Fatalf("generating input: %v", err)
	}

	srv, err := server.Serve(cluster.M3R, "127.0.0.1:0")
	if err != nil {
		log.Fatalf("starting server: %v", err)
	}
	defer srv.Close()
	fmt.Printf("M3R server listening on %s\n", srv.Addr())

	client, err := server.Dial(srv.Addr())
	if err != nil {
		log.Fatalf("dialing: %v", err)
	}

	// Synchronous submission: the client blocks until the job report.
	rep, err := client.Submit(wordcount.NewJob("/data/text", "/out/sync", 2, true))
	if err != nil {
		log.Fatalf("remote submit: %v", err)
	}
	fmt.Printf("sync job %s finished on engine %q in %v\n", rep.JobID, rep.Engine, rep.Wall.Round(1000))

	// Asynchronous submission with polling, like a Hadoop JobClient.
	id, err := client.SubmitAsync(wordcount.NewJob("/data/text", "/out/async", 2, true))
	if err != nil {
		log.Fatalf("async submit: %v", err)
	}
	fmt.Printf("async job submitted as %s; polling...\n", id)
	st, err := client.WaitFor(id, 5*time.Millisecond, time.Minute)
	if err != nil {
		log.Fatalf("poll: %v", err)
	}
	fmt.Printf("async job state=%s in %v\n", st.State, st.Report.Wall.Round(1000))
	fmt.Printf("shuffle pool held after the sequence: %d bytes (drains to zero between jobs)\n",
		cluster.M3R.ShufflePoolHeldBytes())
}
