package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"

	"disasso/internal/anonymity"
	"disasso/internal/breach"
	"disasso/internal/core"
	"disasso/internal/dataset"
	"disasso/internal/metrics"
	"disasso/internal/query"
	"disasso/internal/server"
	"disasso/internal/shard"
	"disasso/internal/snapfile"
)

// The correctness checks run outside the timed sections; each returns nil
// when the output is right. selfTest feeds every check tampered input.

// checkPublication verifies a served publication: k^m-anonymity and the
// structural invariants (anonymity.Verify), coverage of the original
// (VerifyAgainstOriginal), and byte identity with an independent run of the
// same engine over the same records (the determinism guarantee every
// publish path promises). The verifiers alone cannot see a lost record
// chunk whose terms also occur in other clusters; the byte comparison can.
func checkPublication(a *core.Anonymized, d *dataset.Dataset, ref *core.Anonymized) error {
	if err := anonymity.Verify(a).Err(); err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	if err := anonymity.VerifyAgainstOriginal(a, d).Err(); err != nil {
		return fmt.Errorf("verify against original: %w", err)
	}
	return checkSameBytes(a, ref)
}

// streamReference runs the streaming engine over an upload the way a
// stream=1 publish does, for an independent reference publication.
func streamReference(up []byte, opts core.Options, budget int64, tempDir string) (*core.Anonymized, error) {
	var b bytes.Buffer
	if _, err := shard.Anonymize(bytes.NewReader(up), &b, shard.Options{Core: opts, MemoryBudget: budget, TempDir: tempDir}); err != nil {
		return nil, err
	}
	return core.ReadBinary(&b)
}

// checkSameBytes compares two publications in the compact binary format.
func checkSameBytes(got, want *core.Anonymized) error {
	var g, w bytes.Buffer
	if err := core.WriteBinary(&g, got); err != nil {
		return err
	}
	if err := core.WriteBinary(&w, want); err != nil {
		return err
	}
	if !bytes.Equal(g.Bytes(), w.Bytes()) {
		return fmt.Errorf("publication differs from the reference (%d vs %d bytes)", g.Len(), w.Len())
	}
	return nil
}

// checkFindings checks a breach report's finding count: zero when clean is
// wanted, more than zero otherwise (so the zero check is not vacuous).
func checkFindings(rep *breach.Report, clean bool) error {
	switch {
	case clean && len(rep.Findings) != 0:
		return fmt.Errorf("%d breach findings on a safe publication", len(rep.Findings))
	case !clean && len(rep.Findings) == 0:
		return errors.New("no breach findings on a plain publication")
	}
	return nil
}

// checkAnswers compares served estimates with an estimator over an
// independently anonymized copy of the dataset.
func checkAnswers(served []server.ItemsetEstimate, ref *query.Estimator) error {
	for _, s := range served {
		want := ref.Support(dataset.NewRecord(s.Itemset...))
		if s.Lower != want.Lower || s.Upper != want.Upper || s.Expected != want.Expected {
			return fmt.Errorf("itemset %v: served (%d, %d, %v), reference (%d, %d, %v)",
				s.Itemset, s.Lower, s.Upper, s.Expected, want.Lower, want.Upper, want.Expected)
		}
	}
	return nil
}

// decodeEstimates decodes a support response body.
func decodeEstimates(body []byte) ([]server.ItemsetEstimate, error) {
	var resp server.SupportResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, err
	}
	return resp.Estimates, nil
}

// decodeBreaches decodes a breach-audit response body.
func decodeBreaches(body []byte) (*breach.Report, error) {
	var resp server.BreachResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, err
	}
	if resp.Report == nil {
		return nil, errors.New("breach response without a report")
	}
	return resp.Report, nil
}

// setOutputMetrics records the publication's utility and size guardrails,
// so a speed-up that degrades the output or bloats the snapshot shows as a
// regression: the share of per-cluster term slots left in term chunks
// (published without multiplicities or correlations) and persisted snapshot
// bytes per upload byte. tlost, the paper's term-level loss, counts a few
// dozen terms at these sizes and moves by up to 50% between samples of one
// corpus, so it is only printed with them.
func (r *run) setOutputMetrics(d *dataset.Dataset, a *core.Anonymized, snapBytes int64) {
	inTermChunks, inChunks := 0, 0
	for _, n := range a.Clusters {
		n.Walk(func(n *core.ClusterNode) {
			for _, c := range n.SharedChunks {
				inChunks += len(c.Domain)
			}
			if n.IsLeaf() {
				inTermChunks += len(n.Simple.TermChunk)
				for _, c := range n.Simple.RecordChunks {
					inChunks += len(c.Domain)
				}
			}
		})
	}
	r.set("termchunk_share", "ratio", float64(inTermChunks)/float64(inTermChunks+inChunks))
	r.set("snap_bytes_per_input_byte", "ratio", float64(snapBytes)/float64(len(upload(d))))
	info("output", map[string]float64{"tlost": metrics.TermsLost(d, a, benchK)})
}

// persisted reads a dataset's publication back from its snapshot file, so
// checks see exactly what a restart would serve.
func persisted(dataDir, name string) (*core.Anonymized, int64, error) {
	path := filepath.Join(dataDir, name+".snap")
	fi, err := os.Stat(path)
	if err != nil {
		return nil, 0, err
	}
	f, err := snapfile.Open(path)
	if err != nil {
		return nil, 0, err
	}
	a := f.Forest() // heap-decoded; independent of the mapping
	if err := f.Close(); err != nil {
		return nil, 0, err
	}
	return a, fi.Size(), nil
}

// dropChunk returns a deep copy of a with the first record chunk of the
// first leaf that has one removed.
func dropChunk(a *core.Anonymized) *core.Anonymized {
	var b bytes.Buffer
	if err := core.WriteBinary(&b, a); err != nil {
		fatalf("%v", err)
	}
	c, err := core.ReadBinary(&b)
	if err != nil {
		fatalf("%v", err)
	}
	for _, leaf := range c.AllLeaves() {
		if len(leaf.RecordChunks) > 0 {
			leaf.RecordChunks = leaf.RecordChunks[1:]
			return c
		}
	}
	fatalf("self-test publication has no record chunk")
	return nil
}

// selfTestBudget is the streaming engine's memory budget in the self-test,
// small enough that its 2k-record upload is cut into several shards.
const selfTestBudget = 64 << 10

// selfTest runs every check on small inputs, once on the genuine output
// (must pass) and once on tampered output (must fail). A check that accepts
// tampered input fails the run.
func selfTest(r *run) {
	d := sampleDataset(r.corpus, 2000, r.seed, 99)
	opts := coreOpts(r.seed)
	a, err := core.Anonymize(d, opts)
	if err != nil {
		fatalf("self-test anonymize: %v", err)
	}
	ref, err := core.Anonymize(d, opts)
	if err != nil {
		fatalf("self-test anonymize: %v", err)
	}
	expect := func(name string, genuine, tampered error) {
		switch {
		case genuine != nil:
			r.check("selftest."+name, fmt.Errorf("rejects genuine input: %w", genuine))
		case tampered == nil:
			r.check("selftest."+name, errors.New("accepts tampered input"))
		default:
			r.check("selftest."+name, nil)
		}
	}

	// Publication checks: a dropped record chunk, in a plain and in a
	// streamed publication. The small budget makes the engine cut shards.
	expect("publication_dropped_chunk", checkPublication(a, d, ref), checkPublication(dropChunk(a), d, ref))
	up := upload(d)
	sa, err := streamReference(up, opts, selfTestBudget, r.work)
	if err != nil {
		fatalf("self-test stream: %v", err)
	}
	sref, err := streamReference(up, opts, selfTestBudget, r.work)
	if err != nil {
		fatalf("self-test stream: %v", err)
	}
	expect("stream_dropped_chunk", checkPublication(sa, d, sref), checkPublication(dropChunk(sa), d, sref))

	// Breach checks: a plain publication claimed safe, a safe one claimed
	// breached.
	safeOpts := opts
	safeOpts.SafeDisassociation = true
	safe, err := core.Anonymize(d, safeOpts)
	if err != nil {
		fatalf("self-test anonymize: %v", err)
	}
	plainRep, safeRep := breach.Audit(a), breach.Audit(safe)
	expect("breach_clean", checkFindings(safeRep, true), checkFindings(plainRep, true))
	expect("breach_nonvacuous", checkFindings(plainRep, false), checkFindings(safeRep, false))

	// Served answers: one flipped estimate.
	est := query.NewEstimator(a)
	refEst := query.NewEstimator(ref)
	stream := newModel(a, querySpec, r.seed).Stream(0)
	var served []server.ItemsetEstimate
	for _, s := range nextBatch(stream) {
		e := est.Support(s)
		served = append(served, server.ItemsetEstimate{Itemset: s, Lower: e.Lower, Upper: e.Upper, Expected: e.Expected})
	}
	flipped := append([]server.ItemsetEstimate(nil), served...)
	i := rand.New(rand.NewPCG(r.seed, 7)).IntN(len(flipped))
	flipped[i].Expected += 1
	expect("answers_flipped_estimate", checkAnswers(served, refEst), checkAnswers(flipped, refEst))

	// Delta check: a delta result that diverged from the from-scratch run
	// (the reference is built over the bag with one record missing).
	copts := opts
	copts.MaxShardRecords = 500
	_, st, err := core.AnonymizeWithState(d, copts)
	if err != nil {
		fatalf("self-test anonymize: %v", err)
	}
	app := sampleDataset(r.corpus, 8, r.seed, 98).Records
	got, _, _, err := st.Apply(core.Delta{Append: app})
	if err != nil {
		fatalf("self-test delta: %v", err)
	}
	bag := append(append([]dataset.Record(nil), d.Records...), app...)
	scratch, _, err := core.AnonymizeWithState(dataset.FromRecords(bag), copts)
	if err != nil {
		fatalf("self-test anonymize: %v", err)
	}
	diverged, _, err := core.AnonymizeWithState(dataset.FromRecords(bag[1:]), copts)
	if err != nil {
		fatalf("self-test anonymize: %v", err)
	}
	expect("delta_diverged", checkSameBytes(got, scratch), checkSameBytes(got, diverged))
}
