// Command perfbench is the repository benchmark: it drives one workload
// through the real front end (loopback HTTP → cluster → core → sources
// → result bytes), checks every answer against a twin deployment, and
// prints every metric by name with its unit. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. With --trace 0 the metrics are the end-to-end ones; with
// --trace 1 a separate traced run gives the per-layer ones.
//
//	go run ./perfbench --workload interactive_lookup --seed 1 --seconds 20 --trace 0
//
// See perfbench/README.md for the workloads and metrics.
package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
	"unsafe"
)

const (
	setupRuns = 5 // set-ups per run; setup_s is their median
	outDir    = ".bench_out"
)

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

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed of the generated data and op stream")
	seconds := flag.Int("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	flag.Parse()
	if err := run(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, dur time.Duration, traced bool) error {
	w := workloads[name]
	if w == nil {
		return fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames(), ", "))
	}
	if _, err := os.Stat("go.mod"); err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	rec := runnerRecord(name, seed, dur)

	var setups []float64
	var r *runner
	var d *dataset
	for k := 0; k < setupRuns; k++ {
		if r != nil {
			if err := r.dep.close(); err != nil {
				return err
			}
			d, r = nil, nil
		}
		var took time.Duration
		var err error
		if d, r, took, err = setup(w, seed, dur); err != nil {
			return err
		}
		setups = append(setups, took.Seconds())
	}
	runtime.GC()
	rec["setup_runs_s"] = setups
	rec["stream_ops"] = len(r.ops)
	rec["heap_baseline_mb"] = r.heapBase / (1 << 20)

	var res *result
	var err error
	if traced {
		res, err = tracedRun(r, d, dur, rec)
	} else {
		res, err = untracedRun(r, d, dur, rec)
		if err == nil {
			res.Metrics["setup_s"] = metric{median(setups), "s"}
		}
	}
	if err != nil {
		return err
	}
	return report(name, seed, traced, rec, res)
}

// setup generates the data and the op stream, loads a deployment,
// serves it, materializes what the workload reads locally, and warms it
// up with the reads that follow the measured part of the stream (same
// popularity, so the cache holds what the run will ask for). The time
// it returns leaves out generating the op stream, which is the
// benchmark's own work, and the forced GC that measures the live heap
// the benchmark holds before the program is loaded.
func setup(w *workload, seed int64, dur time.Duration) (*dataset, *runner, time.Duration, error) {
	t0 := time.Now()
	d := genData(seed)
	took := time.Since(t0)
	n := streamLen(w, dur)
	ops := genOps(w, d, seed, n+w.warm)
	runtime.GC()
	heapBase := readMetric("/gc/heap/live:bytes")

	t0 = time.Now()
	dep, err := newDeployment(d, w.cfg)
	if err != nil {
		return nil, nil, 0, err
	}
	if err := dep.serve(w.clients); err != nil {
		return nil, nil, 0, err
	}
	if w.materialize {
		if err := dep.sys.Materialize(context.Background(), "customers"); err != nil {
			return nil, nil, 0, err
		}
	}
	r := &runner{w: w, dep: dep, ops: ops, heapBase: heapBase}
	for i := n; i < len(ops); i++ {
		if ops[i].class == classWrite {
			continue
		}
		if s := r.do(i); s.status != 200 {
			return nil, nil, 0, fmt.Errorf("warm-up %s: status %d", ops[i].class, s.status)
		}
	}
	took += time.Since(t0)
	r.ops = ops[:n]
	return d, r, took, nil
}

// streamLen sizes the measured op stream: a stream with writes has a
// fixed rate times dur ops; a read-only stream holds 200 decks that the
// closed loop cycles through.
func streamLen(w *workload, dur time.Duration) int {
	if w.opsPerSec > 0 {
		return int(math.Round(float64(w.opsPerSec) * dur.Seconds()))
	}
	deck := 0
	for _, e := range w.deck {
		deck += e.n
	}
	return 200 * deck
}

func untracedRun(r *runner, d *dataset, dur time.Duration, rec map[string]any) (*result, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cs0 := r.dep.sys.CacheStats()
	samples, elapsed, err := r.run(dur, minSamplesFor(0.95))
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&m1)
	cs1 := r.dep.sys.CacheStats()
	rec["cache_hits"], rec["cache_misses"] = cs1.Hits-cs0.Hits, cs1.Misses-cs0.Misses
	runtime.GC()
	// The dataset, the op stream (both in heapBase) and the sample
	// buffer, which grows in steps with the op count, are the
	// benchmark's own; they are not the program's memory.
	sampleBuf := float64(cap(samples)) * float64(unsafe.Sizeof(sample{}))
	heapLive := readMetric("/gc/heap/live:bytes") - r.heapBase - sampleBuf
	rec["heap_samples_mb"] = sampleBuf / (1 << 20)
	if err := r.dep.close(); err != nil {
		return nil, err
	}
	if err := judge(r, d, samples); err != nil {
		return nil, err
	}
	res, lat := summarize(r, samples)
	p50, _ := percentile(lat, 0.50)
	p95, ok := percentile(lat, 0.95)
	if !ok {
		return nil, fmt.Errorf("%d successful ops: p95 has fewer than %d samples beyond it", len(lat), minBeyond)
	}
	ok200 := float64(len(lat))
	rows, slo := 0, 0
	for _, s := range samples {
		rows += s.rows
		if s.outcome == outOK && ms(s.lat) <= r.w.sloMS {
			slo++
		}
	}
	rec["samples"] = len(samples)
	rec["latency_samples"] = len(lat)
	rec["p50_beyond"] = len(lat) - int(math.Ceil(0.50*ok200))
	rec["p95_beyond"] = len(lat) - int(math.Ceil(0.95*ok200))
	rec["elapsed_s"] = elapsed.Seconds()
	res.Metrics = map[string]metric{
		"latency_p50_ms":   {p50, "ms"},
		"latency_p95_ms":   {p95, "ms"},
		"throughput_qps":   {ok200 / elapsed.Seconds(), "1/s"},
		"rows_per_s":       {float64(rows) / elapsed.Seconds(), "1/s"},
		"slo_frac":         {float64(slo) / float64(len(samples)), "frac"},
		"allocs_per_query": {float64(m1.Mallocs-m0.Mallocs) / ok200, "count"},
		"heap_live_mb":     {heapLive / (1 << 20), "MB"},
	}
	return res, nil
}

// summarize counts outcomes and returns the sorted latencies (ms) of
// the ops that succeeded at the protocol level (HTTP 200).
func summarize(r *runner, samples []sample) (*result, []float64) {
	res := &result{Correct: true, Attempted: len(samples)}
	var lat []float64
	for _, s := range samples {
		if s.outcome != outOK {
			res.Failed++
		}
		if s.outcome == outWrong {
			res.Correct = false
		}
		if s.status == 200 {
			lat = append(lat, ms(s.lat))
		}
	}
	sort.Float64s(lat)
	return res, lat
}

// judge checks every answer against the twin.
func judge(r *runner, d *dataset, samples []sample) error {
	or, err := newOracle(d)
	if err != nil {
		return err
	}
	defer or.twin.close()
	return or.judge(samples, r.ops, r.applied)
}

func readMetric(name string) float64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	switch s[0].Value.Kind() {
	case metrics.KindUint64:
		return float64(s[0].Value.Uint64())
	case metrics.KindFloat64:
		return s[0].Value.Float64()
	}
	return math.NaN()
}

func runnerRecord(name string, seed int64, dur time.Duration) map[string]any {
	return map[string]any{
		"workload":   name,
		"seed":       seed,
		"seconds":    dur.Seconds(),
		"loop":       "closed", // no workload runs an open loop
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"num_cpu":    runtime.NumCPU(),
		"go_version": runtime.Version(),
		"commit":     commit(),
		"source_sha": sourceHash(),
	}
}

// commit reads the checked-out commit from .git when there is one.
func commit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, _ := os.ReadFile(".git/packed-refs")
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, r, ok := strings.Cut(line, " "); ok && r == ref {
			return sha
		}
	}
	return "unknown"
}

// sourceHash identifies the measured source tree when there is no .git:
// a SHA-256 over the module's Go files and go.mod.
func sourceHash() string {
	h := sha256.New()
	filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if e.IsDir() && path != "." && strings.HasPrefix(e.Name(), ".") {
			return filepath.SkipDir
		}
		if !e.IsDir() && (strings.HasSuffix(path, ".go") || path == "go.mod") {
			b, err := os.ReadFile(path)
			if err == nil {
				fmt.Fprintf(h, "%s %d\n", path, len(b))
				h.Write(b)
			}
		}
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// report prints every metric by name with its unit, the runner record,
// and the result line last; it also keeps the record under .bench_out.
func report(name string, seed int64, traced bool, rec map[string]any, res *result) error {
	rec["correct"], rec["attempted"], rec["failed"] = res.Correct, res.Attempted, res.Failed
	rec["metrics"] = res.Metrics
	out := bufio.NewWriter(os.Stdout)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "%-28s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	recJSON, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "record %s\n", recJSON)
	mode := 0
	if traced {
		mode = 1
	}
	path := filepath.Join(outDir, fmt.Sprintf("report-%s-%d-trace%d.json", name, seed, mode))
	if err := os.WriteFile(path, recJSON, 0o644); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", line)
	return out.Flush()
}
