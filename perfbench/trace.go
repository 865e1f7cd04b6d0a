package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"disasso/internal/breach"
	"disasso/internal/core"
	"disasso/internal/dataset"
	"disasso/internal/query"
	"disasso/internal/server"
	"disasso/internal/shard"
	"disasso/internal/snapfile"
)

// The traced run replays each workload's operations step by step through
// the public function of every layer, timing each call from the
// benchmark's own code (spans inside the program are a later change). The
// end-to-end numbers come from untraced runs; the traced run also makes
// untraced handler calls of the same operations so each layer sum can be
// reconciled with the time a user sees.
//
// Reconciliation tolerance: publish.layer_sum_share and churn.layer_sum_share
// must lie within [reconcileLo, reconcileHi], or the traced run fails its
// "trace.reconcile" check. The rest of the handler's time is routing, body
// limits, JSON and directory fsync, which no layer span covers; the replay
// and the handler calls also run at different moments of a shared machine.
const reconcileLo, reconcileHi = 0.85, 1.15

// span is one timed layer call. Spans of one replayed operation share Op;
// Parent is the enclosing span's ID (0 at the top).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Op     string  `json:"op"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	op    string
	spans []span
	stack []int
	durs  map[string][]float64 // span name → durations in seconds
}

func newTracer() *tracer { return &tracer{t0: time.Now(), durs: map[string][]float64{}} }

// span times f as a span named name, nested in the currently open span.
func (t *tracer) span(name string, f func()) time.Duration {
	id := len(t.spans) + 1
	parent := 0
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.op, Name: name})
	t.stack = append(t.stack, id)
	start := time.Now()
	f()
	end := time.Now()
	t.stack = t.stack[:len(t.stack)-1]
	s := &t.spans[id-1]
	s.Start, s.End = us(start.Sub(t.t0)), us(end.Sub(t.t0))
	d := end.Sub(start)
	t.durs[name] = append(t.durs[name], d.Seconds())
	return d
}

// med returns the median duration of a span name in seconds.
func (t *tracer) med(name string) float64 { return median(t.durs[name]) }

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// traceReps is how many times the publish replay runs each step; the
// per-layer times are medians.
const traceReps = 3

// runTraced replays all three workloads, so a traced run reports every
// per-layer metric whichever workload it was started for.
func runTraced(r *run) {
	tr := newTracer()
	publishTrace(r, tr, traceReps)
	queryTrace(r, tr)
	churnTrace(r, tr)
	dir := filepath.Join(r.out, "traces")
	path := filepath.Join(dir, fmt.Sprintf("%s-%d.jsonl", r.workload, r.seed))
	err := os.MkdirAll(dir, 0o755)
	if err == nil {
		err = tr.write(path)
	}
	if err != nil {
		fatalf("writing trace: %v", err)
	}
	info("trace", map[string]any{"spans": len(tr.spans), "file": path})
	for _, name := range []string{"publish.layer_sum_share", "churn.layer_sum_share"} {
		var err error
		if v := r.metrics[name].Value; v < reconcileLo || v > reconcileHi {
			err = fmt.Errorf("%s = %.3f, outside [%.2f, %.2f]", name, v, reconcileLo, reconcileHi)
		}
		r.check("trace.reconcile."+name, err)
	}
}

// spanCost measures what the tracer adds to one timed call: a span around
// an empty function, net of calling the empty function directly.
func spanCost() time.Duration {
	const n = 100_000
	f := func() {}
	bare := timeIt(func() {
		for range n {
			f()
		}
	})
	t := newTracer()
	wrapped := timeIt(func() {
		for range n {
			t.span("x", f)
		}
	})
	return max(wrapped-bare, 0) / n
}

// writeSnapshot persists a snapshot the way the server does: temp file,
// write, flush, fsync, rename, directory fsync.
func writeSnapshot(dir, name string, c snapfile.Contents) error {
	f, err := os.CreateTemp(dir, name+"-*.tmp")
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err = c.Write(bw); err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), filepath.Join(dir, name+".snap"))
	}
	if err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

func snapContents(name string, a *core.Anonymized, sum core.Summary, est *query.Estimator, orig *dataset.Dataset, opts core.Options) snapfile.Contents {
	return snapfile.Contents{
		Meta: snapfile.Meta{
			Name: name, K: a.K, M: a.M, Records: sum.Records, Terms: sum.DistinctTerms,
			Clusters: len(a.Clusters), Version: 1, ShardRecords: opts.MaxShardRecords, Opts: opts, Summary: sum,
		},
		Forest: a, Index: est.Index(), Singles: est.Singles(), Original: orig,
	}
}

func buildParts(a *core.Anonymized, st *core.RepubState) []*query.EstimatorPart {
	parts := make([]*query.EstimatorPart, st.NumShards())
	for i := range parts {
		parts[i] = query.BuildEstimatorPart(a.K, a.M, st.ShardClusters(i))
	}
	return parts
}

func must(err error) {
	if err != nil {
		fatalf("traced replay: %v", err)
	}
}

func publishTrace(r *run, tr *tracer, reps int) {
	in := newPublishInputs(r)
	opts := coreOpts(r.seed)
	replayDir := r.tempDir("trace-publish-")

	// The plain publish, alternately through the handler (untraced) and
	// replayed step by step as handlePublish runs it, each after a forced GC.
	// Each replay's layer sum is compared with the handler call just before
	// it, so the share does not follow the machine's speed between reps.
	layers := []string{"dataset.read_ids", "core.anonymize_with_state", "query.estimator_build", "core.stats", "snapfile.write"}
	var shares []float64
	var a *core.Anonymized
	for i := range reps {
		runtime.GC()
		_, handler := r.call(in.srv, http.MethodPost, publishTarget("plain", r.seed, ""), in.bigUp)
		runtime.GC()
		tr.op = fmt.Sprintf("publish.%d", i)
		tr.span("publish", func() {
			var d *dataset.Dataset
			var st *core.RepubState
			var est *query.Estimator
			var sum core.Summary
			var err error
			tr.span(layers[0], func() { d, err = dataset.ReadIDs(bytes.NewReader(in.bigUp)) })
			must(err)
			tr.span(layers[1], func() { a, st, err = core.AnonymizeWithState(d, opts) })
			must(err)
			tr.span(layers[2], func() { est = query.NewEstimatorFromParts(a, buildParts(a, st)) })
			tr.span(layers[3], func() { sum = a.Stats() })
			tr.span(layers[4], func() { err = writeSnapshot(replayDir, "plain", snapContents("plain", a, sum, est, d, opts)) })
			must(err)
		})
		layerSum := 0.0
		for _, l := range layers {
			layerSum += lastN(tr.durs[l], 1)[0]
		}
		shares = append(shares, layerSum/handler.Seconds())
	}
	served, _, err := persisted(in.dataDir, "plain")
	if err == nil {
		err = checkSameBytes(a, served)
	}
	r.check("trace.publish_replay_equals_served", err)
	r.set("dataset.read_ids_s", "s", tr.med(layers[0]))
	r.set("core.anonymize_with_state_s", "s", tr.med(layers[1]))
	r.set("query.estimator_build_s", "s", tr.med(layers[2]))
	r.set("core.stats_s", "s", tr.med(layers[3]))
	r.set("snapfile.write_s", "s", tr.med(layers[4]))
	r.set("publish.layer_sum_share", "ratio", median(shares))
	// Tracing overhead: the measured cost of a span times the spans of one
	// replayed publish, against that publish's time. Comparing the replay
	// with the handler would instead measure how the two paths differ.
	perPublish := float64(len(tr.spans)) / float64(reps)
	r.set("trace.overhead_share", "ratio", perPublish*spanCost().Seconds()/tr.med("publish"))

	// Pipeline splits of the same upload.
	d := in.big
	for i := range reps {
		tr.op = fmt.Sprintf("pipeline.%d", i)
		tr.span("core.horpart", func() { core.HorPartN(d, core.DefaultMaxClusterSize, nil, 0) })
		tr.span("core.anonymize", func() { _, err = core.Anonymize(d, opts) })
		must(err)
		norefine := opts
		norefine.DisableRefine = true
		tr.span("core.anonymize_norefine", func() { _, err = core.Anonymize(d, norefine) })
		must(err)
		p1 := opts
		p1.Parallel = 1
		tr.span("core.anonymize_p1", func() { _, err = core.Anonymize(d, p1) })
		must(err)
		tr.span("core.anonymize_small", func() { _, err = core.Anonymize(in.small, opts) })
		must(err)
		safe := opts
		safe.SafeDisassociation = true
		tr.span("core.anonymize_small_safe", func() { _, err = core.Anonymize(in.small, safe) })
		must(err)
	}
	r.set("core.horpart_s", "s", tr.med("core.horpart"))
	r.set("core.refine_s", "s", tr.med("core.anonymize")-tr.med("core.anonymize_norefine"))
	r.set("core.anonymize_p1_s", "s", tr.med("core.anonymize_p1"))
	r.set("core.parallel_speedup", "ratio", tr.med("core.anonymize_p1")/tr.med("core.anonymize"))
	r.set("core.saferepair_s", "s", tr.med("core.anonymize_small_safe")-tr.med("core.anonymize_small"))

	var rep *breach.Report
	for range reps {
		tr.span("breach.audit", func() { rep = breach.Audit(a) })
	}
	r.set("breach.audit_s", "s", tr.med("breach.audit"))
	r.set("breach.findings", "count", float64(len(rep.Findings)))
	r.set("breach.breached_cluster_share", "ratio", float64(rep.BreachedClusters)/float64(max(rep.Clusters, 1)))

	// The streamed publish: spill engine, re-read, estimator build.
	var sst shard.Stats
	for i := range reps {
		tr.op = fmt.Sprintf("stream.%d", i)
		out, err := os.CreateTemp(in.tempDir, "stream-*.bin")
		must(err)
		bw := bufio.NewWriter(out)
		tr.span("shard.anonymize", func() {
			sst, err = shard.Anonymize(bytes.NewReader(in.bigUp), bw, shard.Options{Core: opts, MemoryBudget: 1 << 20, TempDir: in.tempDir})
		})
		must(err)
		must(bw.Flush())
		_, err = out.Seek(0, 0)
		must(err)
		var sa *core.Anonymized
		tr.span("core.read_binary", func() { sa, err = core.ReadBinary(bufio.NewReader(out)) })
		must(err)
		tr.span("query.new_estimator", func() { query.NewEstimator(sa) })
		_ = out.Close() // scratch file, fully consumed
		must(os.Remove(out.Name()))
	}
	r.set("shard.anonymize_s", "s", tr.med("shard.anonymize"))
	r.set("shard.shards", "count", float64(sst.Shards))
	r.set("shard.spill_bytes_per_input_byte", "ratio", float64(sst.SpillBytes)/float64(len(in.bigUp)))
	r.set("core.read_binary_s", "s", tr.med("core.read_binary"))
	r.set("query.new_estimator_s", "s", tr.med("query.new_estimator"))
}

func queryTrace(r *run, tr *tracer) {
	in := newQueryInputs(r)
	path := filepath.Join(in.dataDir, queryName+".snap")
	coldBatch := nextBatch(in.model.Stream(1))

	// Cold start, layer by layer.
	for i := range 20 {
		tr.op = fmt.Sprintf("cold.%d", i)
		var f *snapfile.Snapshot
		var est *query.Estimator
		var err error
		tr.span("snapfile.open", func() { f, err = snapfile.Open(path) })
		must(err)
		tr.span("query.recovered_estimator", func() { est = query.NewRecoveredEstimator(f.Forest(), f.Index(), f.Singles()) })
		tr.span("query.first_batch", func() {
			for _, s := range coldBatch {
				est.Support(s)
			}
		})
		must(f.Close()) // est is not used past this point
	}
	r.set("snapfile.open_ms", "ms", 1000*tr.med("snapfile.open"))
	r.set("query.recovered_estimator_ms", "ms", 1000*tr.med("query.recovered_estimator"))
	r.set("query.first_batch_ms", "ms", 1000*tr.med("query.first_batch"))

	// The workload's read stream against a warm recovered estimator with no
	// cache, and against a cache-less server for the handler overhead.
	f, err := snapfile.Open(path)
	must(err)
	est := query.NewRecoveredEstimator(f.Forest(), f.Index(), f.Singles())
	noCache := server.New(server.Options{DataDir: in.dataDir, SupportCacheEntries: -1, Logf: quiet})
	if _, err := noCache.Recover(); err != nil {
		fatalf("recover: %v", err)
	}
	stream := in.model.Stream(0)
	batches := make([][]dataset.Record, 300)
	for i := range batches {
		batches[i] = nextBatch(stream)
	}
	for _, b := range batches { // warm both sides' lazy per-cluster indexes
		for _, s := range b {
			est.Support(s)
		}
		r.call(noCache, http.MethodPost, supportTarget, supportBody(b))
	}
	var itemsetUS, singleUS, intersectUS, overheadUS []float64
	clusters, intersections := 0, 0
	ix := est.Index()
	var mismatch error
	for i, b := range batches {
		tr.op = fmt.Sprintf("batch.%d", i)
		estTotal := 0.0
		var ests []query.Estimate
		for _, s := range b {
			var e query.Estimate
			d := tr.span("query.support", func() { e = est.Support(s) })
			ests = append(ests, e)
			estTotal += us(d)
			if len(s) == 1 {
				singleUS = append(singleUS, us(d))
				continue
			}
			itemsetUS = append(itemsetUS, us(d))
			var hit []int32
			intersectUS = append(intersectUS, us(tr.span("qindex.intersect", func() { hit = ix.IntersectClusters(nil, s) })))
			clusters += len(hit)
			intersections++
		}
		body := supportBody(b)
		rec, d := r.call(noCache, http.MethodPost, supportTarget, body)
		overheadUS = append(overheadUS, us(d)-estTotal)
		served, err := decodeEstimates(rec.Body.Bytes())
		if err == nil && len(served) != len(ests) {
			err = fmt.Errorf("%d answers for %d itemsets", len(served), len(ests))
		}
		for j := 0; err == nil && j < len(ests); j++ {
			if served[j].Lower != ests[j].Lower || served[j].Upper != ests[j].Upper || served[j].Expected != ests[j].Expected {
				err = fmt.Errorf("itemset %v: served and replayed estimates differ", b[j])
			}
		}
		if mismatch == nil {
			mismatch = err
		}
	}
	r.check("trace.query_replay_equals_served", mismatch)
	_ = f.Close() // est and the server's own mapping are done
	r.set("query.support_itemset_p50_us", "us", median(itemsetUS))
	r.set("query.support_itemset_p99_us", "us", quantile(itemsetUS, 0.99))
	r.set("query.support_singleton_us", "us", median(singleUS))
	r.set("qindex.intersect_us", "us", median(intersectUS))
	r.set("qindex.clusters_per_itemset", "count", float64(clusters)/float64(max(intersections, 1)))
	r.set("server.overhead_us", "us", median(overheadUS))
	repeat, itemsets := streamShares(batches)
	r.set("load.repeat_share", "ratio", repeat)
	r.set("load.itemset_share", "ratio", itemsets)
}

// churnDeltas is how many deltas the traced churn replay applies (after the
// resident window): enough for a p90 with several samples beyond it.
const churnDeltas = 40

func churnTrace(r *run, tr *tracer) {
	in := newChurnInputs(r)
	opts := churnOpts()
	ops := churnSequence(in.deltas, churnResident+churnDeltas)

	// Each delta goes alternately through the server (untraced) and through
	// a RepubState the benchmark holds (traced), each after a forced GC.
	a, st, err := core.AnonymizeWithState(in.d, opts)
	must(err)
	parts := buildParts(a, st)
	replayDir := r.tempDir("trace-churn-")
	layers := []string{"dataset.read_ids", "core.apply", "query.part_rebuild", "core.records", "core.stats", "snapfile.write"}
	dirty, total, replanned, fallbacks := 0, 0, 0, 0
	layerSum, handlerSum := 0.0, 0.0
	var supportUS []float64
	for i, op := range ops {
		runtime.GC()
		_, hd := r.call(in.srv, http.MethodPost, deltaTarget(op), deltaBody(op.batch))
		runtime.GC()
		tr.op = fmt.Sprintf("delta.%d", i)
		var est *query.Estimator
		tr.span("delta", func() {
			var d *dataset.Dataset
			var next *core.Anonymized
			var nst *core.RepubState
			var stats core.RepublishStats
			var recs []dataset.Record
			var sum core.Summary
			tr.span(layers[0], func() { d, err = dataset.ReadIDs(bytes.NewReader(deltaBody(op.batch))) })
			must(err)
			delta := core.Delta{Append: d.Records}
			if op.remove {
				delta = core.Delta{Remove: d.Records}
			}
			tr.span(layers[1], func() { next, nst, stats, err = st.Apply(delta) })
			must(err)
			tr.span(layers[2], func() {
				if stats.FullRepublish {
					parts = buildParts(next, nst)
				} else {
					for _, si := range stats.Dirty {
						parts[si] = query.BuildEstimatorPart(next.K, next.M, nst.ShardClusters(si))
					}
				}
				est = query.NewEstimatorFromParts(next, parts)
			})
			tr.span(layers[3], func() { recs = nst.Records() })
			tr.span(layers[4], func() { sum = next.Stats() })
			tr.span(layers[5], func() {
				err = writeSnapshot(replayDir, churnName, snapContents(churnName, next, sum, est, dataset.FromRecords(recs), opts))
			})
			must(err)
			a, st = next, nst
			if i >= churnResident {
				dirty += stats.DirtyShards
				total += stats.TotalShards
				replanned += stats.ReplannedShards
				if stats.FullRepublish {
					fallbacks++
				}
			}
		})
		if i < churnResident {
			continue
		}
		for _, l := range layers {
			ds := tr.durs[l]
			layerSum += ds[len(ds)-1]
		}
		handlerSum += hd.Seconds()
		for _, s := range nextBatch(in.reads) {
			if len(s) > 1 {
				supportUS = append(supportUS, us(tr.span("churn.support", func() { est.Support(s) })))
			}
		}
	}
	served, _, err := persisted(in.dataDir, churnName)
	if err == nil {
		err = checkSameBytes(a, served)
	}
	r.check("trace.churn_replay_equals_served", err)

	apply := tr.durs["core.apply"][churnResident:]
	steady := func(name string) float64 { return 1000 * median(tr.durs[name][churnResident:]) }
	r.set("core.apply_p50_ms", "ms", 1000*median(apply))
	r.set("core.apply_p90_ms", "ms", 1000*quantile(apply, 0.9))
	r.set("core.delta_dirty_share", "ratio", float64(dirty)/float64(max(total, 1)))
	r.set("core.delta_replanned_share", "ratio", float64(replanned)/float64(max(total, 1)))
	r.set("core.delta_fallback_share", "ratio", float64(fallbacks)/float64(churnDeltas))
	r.set("query.part_rebuild_ms", "ms", steady("query.part_rebuild"))
	r.set("core.records_ms", "ms", steady("core.records"))
	// core.stats and snapfile.write also ran in the publish replay; the
	// churn medians use only the delta spans recorded here.
	r.set("core.stats_ms", "ms", 1000*median(lastN(tr.durs["core.stats"], churnDeltas)))
	r.set("snapfile.write_ms", "ms", 1000*median(lastN(tr.durs["snapfile.write"], churnDeltas)))
	r.set("churn.layer_sum_share", "ratio", layerSum/handlerSum)
	r.set("churn.support_itemset_us", "us", median(supportUS))
}

func lastN(xs []float64, n int) []float64 { return xs[len(xs)-n:] }
