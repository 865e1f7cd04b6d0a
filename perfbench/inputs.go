package main

import (
	"bytes"
	"io/fs"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"

	"disasso/internal/core"
	"disasso/internal/dataset"
	"disasso/internal/load"
	"disasso/internal/quest"
)

// Anonymization parameters shared by every workload: k=5, m=2, the default
// cluster size and Parallel = GOMAXPROCS (the server's default).
const (
	benchK = 5
	benchM = 2
)

// querySpec is the analysts' read mix: Zipf-skewed singletons and
// correlated 2–3-term itemsets drawn from a universe 8× the server's default
// support cache, so batches both hit and miss the cache.
const querySpec = "singleton weight=6 zipf=1.3; itemset weight=4 min=2 max=3 universe=65536 zipf=0.8"

// batchSize is the number of itemsets per support request.
const batchSize = 16

// The corpus is a fixed Quest population: the pattern pool and its records
// come from a constant generator seed, and every dataset a run uses is a
// sample of corpus records drawn by --seed. Quest datasets from different
// generator seeds differ in their pattern pools, which moves publish and
// repair costs by up to 2.6× between seeds; sampling one population keeps
// the seed's effect to the sample, the streams and the anonymization seed.
const (
	corpusSeed    = 1
	corpusRecords = 100_000
)

// newCorpus generates the corpus: Quest records over a 1000-term domain with
// average record length 8.
func newCorpus() []dataset.Record {
	cfg := quest.DefaultConfig()
	cfg.NumTransactions = corpusRecords
	cfg.DomainSize = 1000
	cfg.AvgTransLen = 8
	cfg.Seed = corpusSeed
	g, err := quest.New(cfg)
	if err != nil {
		fatalf("quest: %v", err)
	}
	return g.Generate().Records
}

// sampleDataset draws n distinct corpus records in random order. Each use
// passes its own salt, so the datasets of one run are independent samples.
func sampleDataset(corpus []dataset.Record, n int, seed, salt uint64) *dataset.Dataset {
	rng := rand.New(rand.NewPCG(seed, salt))
	idx := rng.Perm(len(corpus))[:n]
	records := make([]dataset.Record, n)
	for i, j := range idx {
		records[i] = corpus[j]
	}
	return dataset.FromRecords(records)
}

// upload encodes a dataset in the server's text upload format.
func upload(d *dataset.Dataset) []byte {
	var b bytes.Buffer
	if err := dataset.WriteIDs(&b, d); err != nil {
		fatalf("encoding upload: %v", err)
	}
	return b.Bytes()
}

// coreOpts are the options the server derives from the benchmark's publish
// query strings (server defaults filled in), for independent reference runs.
func coreOpts(seed uint64) core.Options {
	return core.Options{K: benchK, M: benchM, Seed: seed}
}

// newModel compiles a load mix against a publication.
func newModel(a *core.Anonymized, spec string, seed uint64) *load.Model {
	sp, err := load.ParseSpec(spec)
	if err != nil {
		fatalf("load spec %q: %v", spec, err)
	}
	m, err := load.NewModel(a, sp, seed)
	if err != nil {
		fatalf("load model: %v", err)
	}
	return m
}

// nextBatch draws the next batch of support itemsets from a read stream.
func nextBatch(s *load.Stream) []dataset.Record {
	out := make([]dataset.Record, batchSize)
	for i := range out {
		op := s.Next()
		if op.Kind != load.OpSupport {
			fatalf("read mix produced a %v op", op.Kind)
		}
		out[i] = op.Itemset
	}
	return out
}

// datasetProps summarizes an input for the per-run property record.
func datasetProps(d *dataset.Dataset) map[string]any {
	st := d.ComputeStats()
	return map[string]any{"records": st.NumRecords, "terms": st.DomainSize, "avg_record_len": st.AvgRecord}
}

// lineCounts counts non-test Go lines per internal/* and cmd/* package.
func lineCounts(root string) map[string]int {
	out := map[string]int{}
	for _, top := range []string{"internal", "cmd"} {
		_ = filepath.WalkDir(filepath.Join(root, top), func(path string, e fs.DirEntry, err error) error {
			if err != nil {
				return nil // informational only: a missing tree counts nothing
			}
			name := e.Name()
			if e.IsDir() && name == "testdata" {
				return filepath.SkipDir
			}
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				return nil
			}
			b, err := os.ReadFile(path)
			if err != nil {
				return nil
			}
			rel, _ := filepath.Rel(root, filepath.Dir(path))
			parts := strings.SplitN(filepath.ToSlash(rel), "/", 3)
			if len(parts) < 2 {
				return nil // a file directly under internal/ or cmd/ is no package of them
			}
			out[parts[0]+"/"+parts[1]] += bytes.Count(b, []byte("\n"))
			return nil
		})
	}
	total := 0
	for _, v := range out {
		total += v
	}
	out["total"] = total
	return out
}
