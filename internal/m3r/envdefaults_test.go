package m3r

import (
	"strings"
	"testing"

	"m3r/internal/conf"
	"m3r/internal/dfs"
	"m3r/internal/sim"
	"m3r/internal/wordcount"
)

// TestMalformedEnvDefaultsFailLoudly pins that every environment default
// the engine reads is validated: a malformed value fails New (engine-wide
// budgets, and the codec a budgeted cache spills with) or Submit (per-job
// defaults) with an error naming the variable, instead of silently building
// an unpooled engine, an unbounded cache, or a job opted out of the pool.
func TestMalformedEnvDefaultsFailLoudly(t *testing.T) {
	vars := []string{"M3R_ENGINE_SHUFFLE_BUDGET_BYTES", "M3R_CACHE_BUDGET_BYTES", "M3R_SHUFFLE_BUDGET_BYTES", "M3R_SPILL_CODEC"}
	for _, tc := range []struct {
		name      string
		env       map[string]string
		jobKey    string // set explicitly on the job, overriding its env default
		newErr    string // variable New must name; "" = New succeeds
		submitErr string // variable Submit must name; "" = Submit succeeds
	}{
		{name: "valid", env: map[string]string{
			"M3R_ENGINE_SHUFFLE_BUDGET_BYTES": "65536", "M3R_CACHE_BUDGET_BYTES": "65536",
			"M3R_SHUFFLE_BUDGET_BYTES": "4096", "M3R_SPILL_CODEC": "flate"}},
		{name: "engine-pool", env: map[string]string{"M3R_ENGINE_SHUFFLE_BUDGET_BYTES": "64k"},
			newErr: "M3R_ENGINE_SHUFFLE_BUDGET_BYTES"},
		{name: "cache-budget", env: map[string]string{"M3R_CACHE_BUDGET_BYTES": "1MiB"},
			newErr: "M3R_CACHE_BUDGET_BYTES"},
		{name: "cache-codec", env: map[string]string{"M3R_CACHE_BUDGET_BYTES": "65536", "M3R_SPILL_CODEC": "gzip"},
			newErr: "M3R_SPILL_CODEC"},
		{name: "job-budget", env: map[string]string{"M3R_SHUFFLE_BUDGET_BYTES": "4k"},
			submitErr: "M3R_SHUFFLE_BUDGET_BYTES"},
		{name: "job-codec", env: map[string]string{"M3R_SPILL_CODEC": "gzip"},
			submitErr: "M3R_SPILL_CODEC"},
		{name: "job-budget-overridden", env: map[string]string{"M3R_SHUFFLE_BUDGET_BYTES": "4k"},
			jobKey: conf.KeyM3RShuffleBudget},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, v := range vars {
				t.Setenv(v, tc.env[v])
			}
			backing, err := dfs.NewHDFS(dfs.HDFSOptions{Root: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			e, err := New(Options{Backing: backing, Places: 2, Stats: sim.NewStats()})
			if tc.newErr != "" {
				if err == nil {
					e.Close()
					t.Fatalf("New succeeded with %s=%q", tc.newErr, tc.env[tc.newErr])
				}
				if !strings.Contains(err.Error(), tc.newErr) {
					t.Fatalf("New error does not name %s: %v", tc.newErr, err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			if err := wordcount.Generate(backing, "/data/env", 8<<10, 3); err != nil {
				t.Fatal(err)
			}
			job := wordcount.NewJob("/data/env", "/out/env", 2, true)
			if tc.jobKey != "" {
				job.SetInt64(tc.jobKey, 0)
			}
			_, err = e.Submit(job)
			if tc.submitErr != "" {
				if err == nil {
					t.Fatalf("Submit succeeded with %s=%q", tc.submitErr, tc.env[tc.submitErr])
				}
				if !strings.Contains(err.Error(), tc.submitErr) {
					t.Fatalf("Submit error does not name %s: %v", tc.submitErr, err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}
