package main

import (
	"fmt"
	"net/http"
	"os"
	"runtime"
	"time"

	"disasso/internal/breach"
	"disasso/internal/core"
	"disasso/internal/dataset"
	"disasso/internal/server"
)

// Input sizes of the publish workload. The large upload goes through the
// plain and the streamed path; the safe repair costs several times a plain
// publish, so it runs on a smaller upload to keep many samples per run.
// Publish and repair costs vary by up to ±25% between inputs of one size
// (the safe repair by more), so every round publishes freshly sampled
// uploads and the run averages over as many inputs as it has rounds. The
// upload sequence is drawn from publishSeed, the same in every run, so runs
// with different --seed values (which drives the anonymization seed) do not
// also average over different inputs.
const (
	publishSeed    = 1
	publishRecords = 20_000
	safeRecords    = 5_000
	streamBudget   = "1MiB"
	streamBytes    = 1 << 20 // streamBudget in bytes, for reference runs
)

type publishInputs struct {
	big, small       *dataset.Dataset
	bigUp, smallUp   []byte
	dataDir, tempDir string
	srv              *server.Server
}

// newPublishInputs starts a server with its three datasets published once
// (the first publish of a name is not what a republishing user waits for).
func newPublishInputs(r *run) *publishInputs {
	in := &publishInputs{}
	in.dataDir, in.tempDir = r.tempDir("publish-data-"), r.tempDir("publish-spill-")
	in.srv = server.New(server.Options{DataDir: in.dataDir, TempDir: in.tempDir, Logf: quiet})
	in.draw(r, 0)
	publishRound(r, in)
	return in
}

// draw samples round's uploads.
func (in *publishInputs) draw(r *run, round uint64) {
	in.big = sampleDataset(r.corpus, publishRecords, publishSeed, 1+2*round)
	in.small = sampleDataset(r.corpus, safeRecords, publishSeed, 2+2*round)
	in.bigUp, in.smallUp = upload(in.big), upload(in.small)
}

func publishTarget(name string, seed uint64, extra string) string {
	return fmt.Sprintf("/v1/datasets/%s?replace=1&k=%d&m=%d&seed=%d%s", name, benchK, benchM, seed, extra)
}

// publishRound makes the workload's three handler calls once. Each call
// starts after a forced GC, so it pays for its own garbage rather than for
// whatever the previous call left behind.
func publishRound(r *run, in *publishInputs) (plain, stream, safe time.Duration) {
	post := func(name, extra string, body []byte) time.Duration {
		runtime.GC()
		_, d := r.call(in.srv, http.MethodPost, publishTarget(name, r.seed, extra), body)
		return d
	}
	plain = post("plain", "", in.bigUp)
	stream = post("stream", "&stream=1&membudget="+streamBudget, in.bigUp)
	safe = post("safe", "&safe=1", in.smallUp)
	return plain, stream, safe
}

func publishWorkload(r *run) {
	var in *publishInputs
	r.setupMedian(func() {
		if in != nil {
			os.RemoveAll(in.dataDir)
			os.RemoveAll(in.tempDir)
		}
		in = newPublishInputs(r)
	})
	// The output guardrails are taken from the set-up publication, so they
	// are a function of the seed alone, not of how many rounds a run fits.
	plain0, bytes0, err := persisted(in.dataDir, "plain")
	if err != nil {
		fatalf("publish set-up: %v", err)
	}
	r.setOutputMetrics(in.big, plain0, bytes0)

	r.startLoop()
	var plain, stream, safe []float64
	records := 0
	var busy time.Duration
	start := time.Now()
	for round := uint64(1); len(plain) < 3 || time.Since(start) < r.seconds; round++ {
		in.draw(r, round)
		p, s, f := publishRound(r, in)
		plain, stream, safe = append(plain, ms(p)), append(stream, ms(s)), append(safe, ms(f))
		records += 2*in.big.Len() + in.small.Len()
		busy += p + s + f
	}
	r.endLoop()

	r.set("op1_mean_ms", "ms", mean(plain))
	r.set("op1_p90_ms", "ms", quantile(plain, 0.9))
	r.set("op2_mean_ms", "ms", mean(stream))
	r.set("op3_mean_ms", "ms", mean(safe))
	r.set("work_per_s", "1/s", float64(records)/busy.Seconds())
	info("samples", map[string]any{"op1": dist(plain), "op2": dist(stream), "op3": dist(safe)})

	publishChecks(r, in)
}

// publishChecks verifies the persisted publications and records the
// workload's input and output properties.
func publishChecks(r *run, in *publishInputs) {
	opts := coreOpts(r.seed)
	plainA, plainBytes, err := persisted(in.dataDir, "plain")
	if err != nil {
		r.check("publish.persisted", err)
		return
	}
	ref, err := core.Anonymize(in.big, opts)
	if err != nil {
		fatalf("reference anonymize: %v", err)
	}
	r.check("publish.plain_publication", checkPublication(plainA, in.big, ref))

	streamA, _, err := persisted(in.dataDir, "stream")
	if err == nil {
		var streamRef *core.Anonymized
		if streamRef, err = streamReference(in.bigUp, opts, streamBytes, in.tempDir); err == nil {
			err = checkPublication(streamA, in.big, streamRef)
		}
	}
	r.check("publish.stream_publication", err)

	findings := -1
	safeRep, plainRep, err := breachReports(r, in.srv)
	if err == nil {
		findings = len(plainRep.Findings)
		err = checkFindings(safeRep, true)
	}
	r.check("publish.safe_breach_free", err)
	if err == nil {
		r.check("publish.plain_breached", checkFindings(plainRep, false))
	}

	info("props", map[string]any{
		"workload":              "publish",
		"big":                   datasetProps(in.big),
		"small":                 datasetProps(in.small),
		"upload_bytes":          len(in.bigUp),
		"clusters":              len(plainA.Clusters),
		"snapshot_bytes":        plainBytes,
		"plain_breach_findings": findings,
	})
}

// breachReports fetches the audits of the safe and the plain publication.
func breachReports(r *run, srv *server.Server) (safe, plain *breach.Report, err error) {
	rec, _ := r.call(srv, http.MethodGet, "/v1/datasets/safe/breaches", nil)
	if safe, err = decodeBreaches(rec.Body.Bytes()); err != nil {
		return nil, nil, err
	}
	rec, _ = r.call(srv, http.MethodGet, "/v1/datasets/plain/breaches", nil)
	if plain, err = decodeBreaches(rec.Body.Bytes()); err != nil {
		return nil, nil, err
	}
	return safe, plain, nil
}
