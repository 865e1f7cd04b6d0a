package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"time"

	"disasso/internal/core"
	"disasso/internal/dataset"
	"disasso/internal/load"
	"disasso/internal/query"
	"disasso/internal/server"
)

const (
	queryRecords = 50_000
	queryName    = "q"
	// querySampleSeed fixes which corpus sample is published: batch and
	// audit costs followed the sample's cluster shapes by about ±10%
	// between seeds. --seed drives the analysts' read stream and the
	// anonymization seed.
	querySampleSeed = 1
	// coldEvery interleaves one cold-start sample (and one audit) after
	// every coldEvery-1 batches, so both see the same machine state.
	coldEvery = 20
)

type queryInputs struct {
	d       *dataset.Dataset
	dataDir string
	srv     *server.Server // recovered from dataDir: reads hit the mapped file
	pub     *core.Anonymized
	model   *load.Model
	snapLen int64
}

func quiet(string, ...any) {}

// newQueryInputs publishes the dataset durably, then recovers it into a
// fresh server, the state a restarted analyst-facing server is in.
func newQueryInputs(r *run) *queryInputs {
	in := &queryInputs{d: sampleDataset(r.corpus, queryRecords, querySampleSeed, 3), dataDir: r.tempDir("query-data-")}
	pubSrv := server.New(server.Options{DataDir: in.dataDir, Logf: quiet})
	target := fmt.Sprintf("/v1/datasets/%s?k=%d&m=%d&seed=%d", queryName, benchK, benchM, r.seed)
	if rec, _ := r.call(pubSrv, http.MethodPost, target, upload(in.d)); rec.Code != http.StatusCreated {
		fatalf("query set-up publish: %d %s", rec.Code, rec.Body)
	}
	in.srv = recovered(in.dataDir)
	var err error
	if in.pub, in.snapLen, err = persisted(in.dataDir, queryName); err != nil {
		fatalf("query set-up: %v", err)
	}
	in.model = newModel(in.pub, querySpec, r.seed)
	return in
}

// recovered starts a server over dataDir and recovers its snapshots.
func recovered(dataDir string) *server.Server {
	srv := server.New(server.Options{DataDir: dataDir, Logf: quiet})
	rep, err := srv.Recover()
	if err != nil || len(rep.Loaded) != 1 {
		fatalf("recovering %s: %v %+v", dataDir, err, rep)
	}
	return srv
}

func supportBody(items []dataset.Record) []byte {
	req := server.SupportRequest{Itemsets: make([][]dataset.Term, len(items))}
	for i, s := range items {
		req.Itemsets[i] = s
	}
	b, err := json.Marshal(req)
	if err != nil {
		fatalf("encoding support request: %v", err)
	}
	return b
}

var supportTarget = "/v1/datasets/" + queryName + "/support"

func queryWorkload(r *run) {
	var in *queryInputs
	r.setupMedian(func() {
		if in != nil {
			os.RemoveAll(in.dataDir)
		}
		in = newQueryInputs(r)
	})

	stream := in.model.Stream(0)
	coldBody := supportBody(nextBatch(in.model.Stream(1)))
	var batchLat, coldLat, auditLat []float64
	var asked [][]dataset.Record
	var sample []server.ItemsetEstimate
	var loopWall time.Duration
	r.startLoop()
	start := time.Now()
	for i := 1; len(coldLat) < 3 || time.Since(start) < r.seconds; i++ {
		if i%coldEvery == 0 {
			// A restarted process starts with an empty heap; the forced GCs
			// keep the batch loop's garbage out of the cold-start and audit
			// samples.
			runtime.GC()
			t0 := time.Now()
			srv := recovered(in.dataDir)
			rec, _ := r.call(srv, http.MethodPost, supportTarget, coldBody)
			coldLat = append(coldLat, ms(time.Since(t0)))
			runtime.GC()
			_, audit := r.call(srv, http.MethodGet, "/v1/datasets/"+queryName+"/breaches", nil)
			auditLat = append(auditLat, ms(audit))
			if len(coldLat) == 1 {
				ests, err := decodeEstimates(rec.Body.Bytes())
				if err != nil {
					r.check("query.response", err)
				}
				sample = append(sample, ests...)
			}
			continue
		}
		items := nextBatch(stream)
		t0 := time.Now()
		rec, d := r.call(in.srv, http.MethodPost, supportTarget, supportBody(items))
		ests, err := decodeEstimates(rec.Body.Bytes())
		loopWall += time.Since(t0)
		if err != nil || len(ests) != len(items) {
			r.check("query.response", fmt.Errorf("batch %d: %d estimates for %d itemsets (%v)", i, len(ests), len(items), err))
		}
		batchLat = append(batchLat, ms(d))
		asked = append(asked, items)
		if i%50 == 1 {
			sample = append(sample, ests...)
		}
	}
	r.endLoop()

	queries := len(asked) * batchSize
	r.set("op1_mean_ms", "ms", mean(batchLat))
	r.set("op1_p90_ms", "ms", quantile(batchLat, 0.9))
	r.set("op2_mean_ms", "ms", mean(coldLat))
	r.set("op3_mean_ms", "ms", mean(auditLat))
	r.set("work_per_s", "1/s", float64(queries)/loopWall.Seconds())
	info("samples", map[string]any{"op1": dist(batchLat), "op2": dist(coldLat), "op3": dist(auditLat)})

	// Served answers against an estimator over an independent anonymization
	// of the same records: covers the cache, recovery and the HTTP layer.
	ref, err := core.Anonymize(in.d, coreOpts(r.seed))
	if err != nil {
		fatalf("reference anonymize: %v", err)
	}
	r.check("query.served_answers", checkAnswers(sample, query.NewEstimator(ref)))

	r.setOutputMetrics(in.d, in.pub, in.snapLen)
	repeat, itemsets := streamShares(asked)
	info("props", map[string]any{
		"workload":       "query",
		"data":           datasetProps(in.d),
		"clusters":       len(in.pub.Clusters),
		"shards":         1,
		"snapshot_bytes": in.snapLen,
		"queries":        queries,
		"repeat_share":   repeat,
		"itemset_share":  itemsets,
		"checked":        len(sample),
	})
}

// streamShares reports which share of the asked queries repeat an earlier
// one and which share are multi-term itemsets.
func streamShares(batches [][]dataset.Record) (repeat, itemsets float64) {
	seen := map[string]bool{}
	n, rep, multi := 0, 0, 0
	for _, b := range batches {
		for _, s := range b {
			n++
			k := s.Key()
			if seen[k] {
				rep++
			}
			seen[k] = true
			if len(s) > 1 {
				multi++
			}
		}
	}
	if n == 0 {
		return 0, 0
	}
	return float64(rep) / float64(n), float64(multi) / float64(n)
}
