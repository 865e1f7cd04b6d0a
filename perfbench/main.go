// Command perfbench is the repository's end-to-end benchmark. It runs in one
// process: it generates every input deterministically (internal/quest
// datasets, internal/load query and delta streams; --seed drives the parts
// each workload varies, see publishSeed, querySampleSeed and churnSeed),
// drives server.New as an http.Handler from a single closed-loop client
// goroutine (no TCP, so a loopback client does not add scheduler noise on
// small boxes), checks the outputs, and prints one JSON result as its last
// line.
//
// Workloads (each stresses different layers):
//
//	publish  writes only: plain, streamed (spill engine) and safe publishes
//	query    reads only: 16-query batches against a recovered snapshot, plus
//	         cold starts and breach audits of freshly recovered servers
//	churn    append/remove deltas on a sharded publication, each followed by
//	         one read batch against the new snapshot
//
// Every workload reports the same end-to-end metrics; op1, op2 and op3 name
// the workload's three user-visible operations (see the table printed in
// the "ops" info line and opNames below). With --trace 1 the run instead
// replays every workload step by step through the layer APIs and reports
// per-layer times and counts (trace.go).
//
// --sweep runs the publish scaling sweep instead (sweep.go). Informational
// lines go to standard output prefixed with "# "; the result is the last
// line.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload query --seed 3 --seconds 20 --trace 0
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"time"

	"disasso/internal/dataset"
)

// opNames documents what op1..op3 time on each workload.
var opNames = map[string][3]string{
	"publish": {"plain publish of the large upload (POST ?replace=1 until 201, fsync included)",
		"streamed publish of the same upload (stream=1&membudget=1MiB)",
		"safe publish of the small upload (safe=1)"},
	"query": {"16-query support batch (POST .../support until 200)",
		"cold start: server.New, Recover, first batch answered",
		"breach audit of a freshly recovered snapshot (GET .../breaches)"},
	"churn": {"append delta of 8 records (until the new version is durable)",
		"16-query read batch right after each snapshot swap",
		"remove delta of the oldest appended batch"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is the state of one benchmark invocation: its arguments, operation
// accounting, check failures and the metrics it will print.
type run struct {
	workload string
	seed     uint64
	seconds  time.Duration
	root     string // repository root (for the line-count report)
	work     string // this run's directory for data dirs and spill files
	out      string // the benchmark's build directory; traces are kept there

	corpus []dataset.Record // the record population datasets are sampled from

	loopSteal, loopTotal float64 // CPU counters at the start of the measured loop

	attempted, failed int
	checkErrs         []string
	metrics           map[string]metric
}

func (r *run) set(name, unit string, v float64) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// check records the outcome of one correctness check; any failure makes the
// run incorrect.
func (r *run) check(name string, err error) {
	if err != nil {
		r.checkErrs = append(r.checkErrs, name+": "+err.Error())
		info("check", map[string]any{"name": name, "ok": false, "error": err.Error()})
		return
	}
	info("check", map[string]any{"name": name, "ok": true})
}

// info prints one informational JSON line, prefixed so it can never be
// mistaken for the result line.
func info(kind string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		b = []byte(strconv.Quote(err.Error()))
	}
	fmt.Printf("# %s %s\n", kind, b)
}

// tempDir makes a fresh directory under the run directory.
func (r *run) tempDir(prefix string) string {
	dir, err := os.MkdirTemp(filepath.Join(r.work, "tmp"), prefix)
	if err != nil {
		fatalf("making temp dir: %v", err)
	}
	return dir
}

// call runs one request through the handler and times the handler call.
// Non-2xx answers count as failed operations.
func (r *run) call(h http.Handler, method, target string, body []byte) (*httptest.ResponseRecorder, time.Duration) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req := httptest.NewRequest(method, target, rd)
	rec := httptest.NewRecorder()
	t0 := time.Now()
	h.ServeHTTP(rec, req)
	d := time.Since(t0)
	r.attempted++
	if rec.Code < 200 || rec.Code > 299 {
		r.failed++
		info("failed", map[string]any{"target": target, "status": rec.Code, "body": strings.TrimSpace(rec.Body.String())})
	}
	return rec, d
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// dist summarizes a latency sample for the run's samples line.
func dist(xs []float64) map[string]float64 {
	return map[string]float64{"n": float64(len(xs)), "p25": quantile(xs, 0.25), "p50": median(xs),
		"p75": quantile(xs, 0.75), "p99": quantile(xs, 0.99), "max": quantile(xs, 1)}
}

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// timeIt runs f and returns its wall time.
func timeIt(f func()) time.Duration {
	t0 := time.Now()
	f()
	return time.Since(t0)
}

// setupReps is how many times each workload builds its set-up state; setup_s
// is the median, and the last state built is the one measured.
const setupReps = 3

// setupMedian runs build setupReps times and records setup_s.
func (r *run) setupMedian(build func()) {
	var xs []float64
	for range setupReps {
		runtime.GC()
		xs = append(xs, timeIt(build).Seconds())
	}
	r.set("setup_s", "s", median(xs))
}

// startLoop begins a measured loop. It returns freed heap to the OS and
// resets the kernel's peak resident set size to the current one, so the
// peak read by endLoop is the loop's own, not the set-up's or the corpus
// generator's (where the reset is unavailable, not on Linux, the peak covers
// the whole process). It also notes the machine's CPU counters.
func (r *run) startLoop() {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		info("peak_rss_reset", map[string]string{"error": err.Error()})
	}
	r.loopSteal, r.loopTotal = cpuTimes()
}

// endLoop records peak_rss_mb and prints the share of the machine's CPU
// time the hypervisor took from it during the loop (steal): every timing
// of a run slows with it, so it tells a slow run from a slow program. Call
// it right after the measured loop, before any reference run or check.
func (r *run) endLoop() {
	r.set("peak_rss_mb", "MB", peakRSSMB())
	steal, total := cpuTimes()
	if total > r.loopTotal {
		info("machine", map[string]float64{"steal_share": (steal - r.loopSteal) / (total - r.loopTotal)})
	}
}

// cpuTimes reads the machine's stolen and total CPU time, in clock ticks,
// from /proc/stat; both are 0 where it is unavailable.
func cpuTimes() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		x, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // guest time is already counted in user and nice
			total += x
		}
		if i == 7 {
			steal = x
		}
	}
	return steal, total
}

// peakRSSMB reads the process's peak resident set size (VmHWM) in MiB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for line := range strings.Lines(string(b)) {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				f := strings.Fields(rest)
				if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

func main() {
	workload := flag.String("workload", "", "publish, query or churn")
	seed := flag.Uint64("seed", 1, "seed of the inputs a workload varies: read streams, samples, anonymization seed")
	seconds := flag.Int("seconds", 20, "length of the measured phase")
	trace := flag.Int("trace", 0, "1 replays the workloads through the layer APIs and reports per-layer metrics")
	root := flag.String("root", ".", "repository root")
	buildDir := flag.String("build-dir", ".bench_build", "directory for temp data and traces")
	sweep := flag.Bool("sweep", false, "run the publish scaling sweep instead of a workload")
	sweepMax := flag.Int("sweep-max", 200_000, "largest record count of the sweep (1000000 reaches the paper's Quest setting)")
	flag.Parse()

	if !*sweep {
		if _, ok := opNames[*workload]; !ok {
			fatalf("unknown --workload %q (want publish, query or churn)", *workload)
		}
		if *seconds < 1 || (*trace != 0 && *trace != 1) {
			fatalf("--seconds must be at least 1 and --trace 0 or 1")
		}
	}
	r := &run{
		workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		root: *root, out: *buildDir, metrics: map[string]metric{},
	}
	// Everything the run writes goes to a fresh directory under the build
	// directory, removed when the run ends.
	work := filepath.Join(*buildDir, "tmp", fmt.Sprintf("run-%d-%d", os.Getpid(), time.Now().UnixNano()))
	if err := os.MkdirAll(filepath.Join(work, "tmp"), 0o755); err != nil {
		fatalf("%v", err)
	}
	r.work = work
	defer os.RemoveAll(work)

	corpusTime := timeIt(func() { r.corpus = newCorpus() })
	if *sweep {
		runSweep(r, *sweepMax)
		return
	}
	info("ops", map[string]any{"workload": r.workload, "op1": opNames[r.workload][0], "op2": opNames[r.workload][1], "op3": opNames[r.workload][2]})
	info("lines", lineCounts(r.root))
	info("corpus", map[string]any{"records": len(r.corpus), "generate_s": corpusTime.Seconds()})
	// The checks' own self-test runs on small inputs in every run: a check
	// that stopped rejecting tampered input fails the run.
	selfTest(r)

	if *trace == 1 {
		runTraced(r)
	} else {
		switch r.workload {
		case "publish":
			publishWorkload(r)
		case "query":
			queryWorkload(r)
		case "churn":
			churnWorkload(r)
		}
	}
	finish(r)
}

// finish prints the result line; a failed check or a failed operation makes
// the process exit non-zero after printing it.
func finish(r *run) {
	res := result{
		Correct:   len(r.checkErrs) == 0,
		Attempted: max(r.attempted, 1),
		Failed:    r.failed,
		Metrics:   r.metrics,
	}
	b, err := json.Marshal(res)
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Println(string(b))
	if !res.Correct || res.Failed > 0 {
		for _, e := range r.checkErrs {
			fmt.Fprintln(os.Stderr, "perfbench: check failed:", e)
		}
		os.RemoveAll(r.work)
		os.Exit(1)
	}
}
