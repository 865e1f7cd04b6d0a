package main

import (
	"fmt"
	"net/http"
	"runtime"

	"disasso/internal/core"
	"disasso/internal/dataset"
	"disasso/internal/quest"
	"disasso/internal/server"
)

// sweepSizes are the record counts of the scaling sweep; --sweep-max cuts
// the list (1000000 reaches the paper's 1M-record Quest setting).
var sweepSizes = []int{10_000, 50_000, 200_000, 1_000_000}

// runSweep publishes Quest datasets of each size with 1..GOMAXPROCS workers
// and prints one line per point: the plain publish through the handler
// (publish_s) and its core split, HORPART alone and REFINE as Anonymize
// minus Anonymize{DisableRefine}. GOMAXPROCS is set per point, so the
// server's default Parallel and every other pool follow it. The sweep is not
// part of the gated workloads.
func runSweep(r *run, maxRecords int) {
	procs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(procs)
	for _, n := range sweepSizes {
		if n > maxRecords {
			break
		}
		cfg := quest.DefaultConfig()
		cfg.NumTransactions = n
		cfg.DomainSize = 1000
		cfg.AvgTransLen = 8
		cfg.Seed = r.seed
		g, err := quest.New(cfg)
		if err != nil {
			fatalf("quest: %v", err)
		}
		d := g.Generate()
		up := upload(d)
		reps := 1
		if n <= 50_000 {
			reps = 3
		}
		var base float64
		for p := 1; p <= procs; p++ {
			runtime.GOMAXPROCS(p)
			pt := sweepPoint(r, d, up, reps)
			if p == 1 {
				base = pt["publish_s"].(float64)
			}
			pt["records"], pt["parallel"] = n, p
			pt["speedup_vs_p1"] = base / pt["publish_s"].(float64)
			info("sweep", pt)
		}
	}
}

func sweepPoint(r *run, d *dataset.Dataset, up []byte, reps int) map[string]any {
	opts := coreOpts(r.seed)
	norefine := opts
	norefine.DisableRefine = true
	srv := server.New(server.Options{DataDir: r.tempDir("sweep-"), Logf: quiet})
	var publish, anon, horpart, noref []float64
	for range reps {
		runtime.GC()
		_, dur := r.call(srv, http.MethodPost, publishTarget("sweep", r.seed, ""), up)
		publish = append(publish, dur.Seconds())
		horpart = append(horpart, timeIt(func() { core.HorPartN(d, core.DefaultMaxClusterSize, nil, 0) }).Seconds())
		anon = append(anon, timeIt(func() { mustAnon(d, opts) }).Seconds())
		noref = append(noref, timeIt(func() { mustAnon(d, norefine) }).Seconds())
	}
	return map[string]any{
		"publish_s":   median(publish),
		"anonymize_s": median(anon),
		"horpart_s":   median(horpart),
		"refine_s":    median(anon) - median(noref),
		"samples":     reps,
	}
}

func mustAnon(d *dataset.Dataset, opts core.Options) {
	if _, err := core.Anonymize(d, opts); err != nil {
		fatalf("%v", fmt.Errorf("sweep anonymize: %w", err))
	}
}
