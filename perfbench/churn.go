package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"time"

	"disasso/internal/core"
	"disasso/internal/dataset"
	"disasso/internal/load"
	"disasso/internal/server"
)

const (
	churnRecords      = 20_000
	churnShardRecords = 500
	churnName         = "c"
	churnDeltaSpec    = "append count=8"
	// churnResident is how many appended batches stay resident: the client
	// appends this many before the measured phase, then alternates one
	// append with one remove of the oldest resident batch.
	churnResident = 4
	// churnSeed fixes the write side of the workload: which corpus sample
	// is the base publication, its anonymization seed, and the delta
	// batches, which are drawn from that publication's clusters. Delta cost
	// is bimodal (a delta either replans the dirty shards or falls back to
	// a full republish, several times dearer), and the fallback share moved
	// with the sample and the delta stream, so per-seed means jumped by up
	// to 40%. --seed drives the read stream.
	churnSeed = 1
)

type churnInputs struct {
	d       *dataset.Dataset
	dataDir string
	srv     *server.Server
	reads   *load.Stream
	deltas  *load.Stream
	pub     *core.Anonymized
}

func churnOpts() core.Options {
	o := coreOpts(churnSeed)
	o.MaxShardRecords = churnShardRecords
	return o
}

func newChurnInputs(r *run) *churnInputs {
	in := &churnInputs{d: sampleDataset(r.corpus, churnRecords, churnSeed, 4), dataDir: r.tempDir("churn-data-")}
	in.srv = server.New(server.Options{DataDir: in.dataDir, Logf: quiet})
	target := fmt.Sprintf("/v1/datasets/%s?k=%d&m=%d&seed=%d&shardrecords=%d", churnName, benchK, benchM, churnSeed, churnShardRecords)
	if rec, _ := r.call(in.srv, http.MethodPost, target, upload(in.d)); rec.Code != http.StatusCreated {
		fatalf("churn set-up publish: %d %s", rec.Code, rec.Body)
	}
	var err error
	if in.pub, _, err = persisted(in.dataDir, churnName); err != nil {
		fatalf("churn set-up: %v", err)
	}
	in.reads = newModel(in.pub, querySpec, r.seed).Stream(0)
	in.deltas = newModel(in.pub, churnDeltaSpec, churnSeed).Stream(0)
	return in
}

// deltaOp is one delta of the churn sequence.
type deltaOp struct {
	remove bool
	batch  []dataset.Record
}

// churnSequence draws the workload's delta sequence: churnResident appends,
// then alternating append / remove-oldest pairs until n deltas.
func churnSequence(deltas *load.Stream, n int) []deltaOp {
	var ops []deltaOp
	var resident [][]dataset.Record
	for len(ops) < n {
		if len(resident) < churnResident || len(ops)%2 == 0 {
			b := deltas.Next().Batch
			resident = append(resident, b)
			ops = append(ops, deltaOp{batch: b})
		} else {
			ops = append(ops, deltaOp{remove: true, batch: resident[0]})
			resident = resident[1:]
		}
	}
	return ops
}

// deltaBody encodes a delta batch in the upload format.
func deltaBody(batch []dataset.Record) []byte { return upload(dataset.FromRecords(batch)) }

func deltaTarget(op deltaOp) string {
	if op.remove {
		return "/v1/datasets/" + churnName + "/remove"
	}
	return "/v1/datasets/" + churnName + "/append"
}

// applyBag applies a delta to the logical record list the way the server
// does: a removal drops the earliest occurrence, appends go to the end.
func applyBag(bag []dataset.Record, op deltaOp) []dataset.Record {
	if !op.remove {
		return append(bag, op.batch...)
	}
	for _, rm := range op.batch {
		for i, rec := range bag {
			if rec.Equal(rm) {
				bag = append(bag[:i], bag[i+1:]...)
				break
			}
		}
	}
	return bag
}

func churnWorkload(r *run) {
	var in *churnInputs
	r.setupMedian(func() {
		if in != nil {
			os.RemoveAll(in.dataDir)
		}
		in = newChurnInputs(r)
	})
	// The delta sequence is drawn up front (long enough for any run length)
	// so the measured loop only sends it.
	ops := churnSequence(in.deltas, 4000)
	bag := append([]dataset.Record(nil), in.d.Records...)
	readTarget := "/v1/datasets/" + churnName + "/support"
	var stats []server.DeltaResponse
	// Every delta and every read starts after a forced GC, so each pays for
	// its own garbage rather than its predecessor's.
	send := func(op deltaOp) time.Duration {
		runtime.GC()
		rec, d := r.call(in.srv, http.MethodPost, deltaTarget(op), deltaBody(op.batch))
		var resp server.DeltaResponse
		if err := json.NewDecoder(bytes.NewReader(rec.Body.Bytes())).Decode(&resp); err != nil {
			r.check("churn.delta_response", err)
		}
		stats = append(stats, resp)
		bag = applyBag(bag, op)
		return d
	}
	// Warm-up: fill the resident window, outside the measured phase.
	for _, op := range ops[:churnResident] {
		send(op)
	}
	// The output guardrails are taken from the warmed-up publication (the
	// base sample plus the first appends), so they do not depend on how many
	// deltas a run fits.
	pub0, bytes0, err := persisted(in.dataDir, churnName)
	if err != nil {
		fatalf("churn warm-up: %v", err)
	}
	r.setOutputMetrics(dataset.FromRecords(bag), pub0, bytes0)

	var appLat, remLat, readLat []float64
	records := 0
	var busy time.Duration
	r.startLoop()
	start := time.Now()
	for i := churnResident; i < len(ops) && (len(remLat) < 3 || time.Since(start) < r.seconds); i++ {
		d := send(ops[i])
		records += len(ops[i].batch)
		busy += d
		if ops[i].remove {
			remLat = append(remLat, ms(d))
		} else {
			appLat = append(appLat, ms(d))
		}
		runtime.GC()
		_, rd := r.call(in.srv, http.MethodPost, readTarget, supportBody(nextBatch(in.reads)))
		readLat = append(readLat, ms(rd))
	}
	r.endLoop()

	r.set("op1_mean_ms", "ms", mean(appLat))
	r.set("op1_p90_ms", "ms", quantile(appLat, 0.9))
	r.set("op2_mean_ms", "ms", mean(readLat))
	r.set("op3_mean_ms", "ms", mean(remLat))
	r.set("work_per_s", "1/s", float64(records)/busy.Seconds())
	info("samples", map[string]any{"op1": dist(appLat), "op2": dist(readLat), "op3": dist(remLat)})

	// The final publication must equal a from-scratch run over the final
	// record bag, byte for byte.
	final, snapLen, err := persisted(in.dataDir, churnName)
	if err == nil {
		var ref *core.Anonymized
		ref, _, err = core.AnonymizeWithState(dataset.FromRecords(bag), churnOpts())
		if err == nil {
			err = checkSameBytes(final, ref)
		}
	}
	r.check("churn.final_equals_scratch", err)

	dirty, total, replanned, fallbacks := 0, 0, 0, 0
	for _, s := range stats {
		dirty += s.DirtyShards
		total += s.TotalShards
		replanned += s.ReplannedShards
		if s.FullRepublish {
			fallbacks++
		}
	}
	info("props", map[string]any{
		"workload":        "churn",
		"data":            datasetProps(in.d),
		"clusters":        len(in.pub.Clusters),
		"shards":          stats[0].TotalShards,
		"snapshot_bytes":  snapLen,
		"appends":         len(appLat) + churnResident,
		"removes":         len(remLat),
		"dirty_share":     float64(dirty) / float64(max(total, 1)),
		"replanned_share": float64(replanned) / float64(max(total, 1)),
		"fallbacks":       fallbacks,
		"final_records":   len(bag),
	})
}
