// Command perfbench is the repository's end-to-end benchmark. It drives
// four named workloads through the packages' public functions, checks
// every result (invariants plus a digest compared with a committed
// reference), and prints the end-to-end metrics, or with -trace 1 the
// per-layer metrics of a traced run. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	go build -o corpperf . && ./corpperf --workload scale-burst --seed 1 --seconds 30 --trace 0
//
// See README.md for the workloads, metrics and the checks.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// benchWorkload is one named benchmark input.
type benchWorkload struct {
	name string
	// minReps and minSetups are the fewest repetitions and set-ups one
	// invocation makes, whatever -seconds says.
	minReps, minSetups int
	// tailP is the fixed percentile step_tail_ms reports: the highest
	// that minReps repetitions always leave ten steps beyond. A step is
	// one request: a controller slot, or on a batch workload the whole
	// timed call.
	tailP float64
	// gateDigest fails a repetition whose digest disagrees (the
	// controller's grant digest is reported, not gated: see README.md).
	gateDigest bool
	// setup prepares one repetition's inputs; tr is nil when untraced.
	setup func(seed int64, tr *tracer) (prepared, error)
}

// prepared runs one repetition's timed phase.
type prepared interface {
	run(tr *tracer) (*rep, error)
}

// rep is one repetition's measurements and checks.
type rep struct {
	wallS     float64
	allocMB   float64
	steps     []float64 // step latencies, ms
	digest    string
	attempted int
	failed    int
	problems  []string
	// layers holds a traced repetition's per-layer values; samples holds
	// per-layer timing samples pooled across traced repetitions.
	layers  map[string]float64
	samples map[string][]float64
}

func workloads() []*benchWorkload {
	return []*benchWorkload{
		scaleBurst(false),
		fig06Quick(false),
		controllerOnline(false),
		scaleFaulted(false),
	}
}

func findWorkload(ws []*benchWorkload, name string) *benchWorkload {
	for _, w := range ws {
		if w.name == name {
			return w
		}
	}
	return nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the final output line.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is everything one invocation measured.
type outcome struct {
	w         *benchWorkload
	reps      []*rep // untraced repetitions
	tracedRep []*rep // traced repetitions (-trace 1 only)
	setups    []float64
	problems  []string
	peakRSS   float64
	// digestsDistinct counts distinct digests over all repetitions.
	digestsDistinct int
}

// measure runs repetitions, at least the workload's minimum, and more
// while the next one is expected to end within the budget. With traced
// set it alternates untraced and traced repetitions, so both wall times
// come from one process; the digest check then also shows that observing
// did not change the results.
func measure(w *benchWorkload, seed int64, seconds float64, traced bool, reference string, tr *tracer) (*outcome, error) {
	o := &outcome{w: w}
	check := newDigestCheck(reference)
	start := time.Now()
	for i := 0; ; i++ {
		enough := len(o.reps) >= w.minReps
		if traced {
			enough = len(o.reps) >= 1 && len(o.tracedRep) >= 1
		}
		elapsed := time.Since(start).Seconds()
		if enough && elapsed*float64(i+1)/float64(i) > seconds {
			break
		}
		var rtr *tracer
		if traced && i%2 == 1 {
			rtr = tr
			tr.run++
		}
		r, setupS, err := runRep(w, seed, rtr)
		if err != nil {
			return nil, err
		}
		o.setups = append(o.setups, setupS)
		judge(w, check, r)
		for _, p := range r.problems {
			o.problems = append(o.problems, fmt.Sprintf("rep %d: %s", i+1, p))
		}
		if rtr != nil {
			o.tracedRep = append(o.tracedRep, r)
		} else {
			o.reps = append(o.reps, r)
		}
	}
	for len(o.setups) < w.minSetups {
		runtime.GC()
		t0 := time.Now()
		if _, err := w.setup(seed, nil); err != nil {
			return nil, err
		}
		o.setups = append(o.setups, time.Since(t0).Seconds())
	}
	o.digestsDistinct = len(check.seen)
	o.peakRSS = peakRSSMB()
	return o, nil
}

// judge applies the digest check to a repetition: on a gated workload a
// disagreeing digest fails it; otherwise the digest is only counted.
func judge(w *benchWorkload, check *digestCheck, r *rep) {
	if !w.gateDigest {
		check.seen[r.digest]++
		return
	}
	if r.failed > 0 && r.digest == "" {
		return // already failed without a result to compare
	}
	if msg := check.check(r.digest); msg != "" {
		r.problems = append(r.problems, msg)
		if r.failed == 0 {
			r.failed = 1
		}
	}
}

// runRep sets up and runs one repetition, returning it with its set-up
// seconds.
func runRep(w *benchWorkload, seed int64, tr *tracer) (*rep, float64, error) {
	runtime.GC()
	t0 := time.Now()
	p, err := w.setup(seed, tr)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: setup: %w", w.name, err)
	}
	setupS := time.Since(t0).Seconds()
	runtime.GC()
	r, err := p.run(tr)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: run: %w", w.name, err)
	}
	return r, setupS, nil
}

func (o *outcome) attemptedFailed() (int, int) {
	a, f := 0, 0
	for _, r := range append(append([]*rep(nil), o.reps...), o.tracedRep...) {
		a += r.attempted
		f += r.failed
	}
	return a, f
}

// endToEnd computes the end-to-end metrics from the untraced repetitions.
func (o *outcome) endToEnd() map[string]metric {
	var wall, alloc, steps []float64
	for _, r := range o.reps {
		wall = append(wall, r.wallS)
		alloc = append(alloc, r.allocMB)
		steps = append(steps, r.steps...)
	}
	return map[string]metric{
		"wall_s":       {median(wall), "s"},
		"setup_s":      {median(o.setups), "s"},
		"alloc_mb":     {median(alloc), "MB"},
		"peak_rss_mb":  {o.peakRSS, "MB"},
		"step_mean_ms": {mean(steps), "ms"},
		"step_tail_ms": {percentile(steps, o.w.tailP), "ms"},
	}
}

// perLayer computes the per-layer metrics from the traced repetitions,
// and the summary with sample count of every pooled layer timing. Metrics
// a workload does not exercise read 0.
func (o *outcome) perLayer() (map[string]metric, map[string]timing) {
	vals := map[string][]float64{}
	samples := map[string][]float64{}
	var traced, untraced []float64
	for _, r := range o.tracedRep {
		traced = append(traced, r.wallS)
		for k, v := range r.layers {
			vals[k] = append(vals[k], v)
		}
		for k, v := range r.samples {
			samples[k] = append(samples[k], v...)
		}
	}
	for _, r := range o.reps {
		untraced = append(untraced, r.wallS)
	}
	timings := map[string]timing{}
	for k, v := range samples {
		t := summarize(v)
		timings[k] = t
		vals[k+"_p50"] = []float64{t.P50}
		vals[k+"_tail"] = []float64{t.Tail}
	}
	out := map[string]metric{}
	for _, m := range perLayerMetrics {
		out[m.name] = metric{median(vals[m.name]), m.unit}
	}
	tw, uw := median(traced), median(untraced)
	out["trace.traced_wall_s"] = metric{tw, "s"}
	out["trace.untraced_wall_s"] = metric{uw, "s"}
	if uw > 0 {
		out["trace.overhead"] = metric{(tw - uw) / uw, "ratio"}
	}
	if !o.w.gateDigest {
		// Only the controller's digest is ungated: its grant sequence.
		out["core.grant_digests_distinct"] = metric{float64(o.digestsDistinct), "count"}
	}
	return out, timings
}

// layerMetric names one per-layer metric and its unit.
type layerMetric struct{ name, unit string }

// perLayerMetrics lists every per-layer metric in BENCHMARK.json order.
var perLayerMetrics = []layerMetric{
	{"workload.build_s", "s"},
	{"workload.tables_s", "s"},
	{"workload.snapshot_mb", "MB"},
	{"workload.cache_hits", "count"},
	{"workload.cache_misses", "count"},
	{"sim.run_s", "s"},
	{"sim.self_s", "s"},
	{"sim.self_us_per_slot", "us"},
	{"sim.slots", "count"},
	{"sim.jobs", "count"},
	{"sim.placements", "count"},
	{"sim.never_placed", "count"},
	{"scheduler.decisions", "count"},
	{"scheduler.decide_s", "s"},
	{"scheduler.decide_us_p50", "us"},
	{"scheduler.decide_us_tail", "us"},
	{"scheduler.decide_share", "ratio"},
	{"faults.vm_crashes", "count"},
	{"faults.evictions", "count"},
	{"faults.retries", "count"},
	{"faults.evict_ratio", "ratio"},
	{"experiments.batches", "count"},
	{"experiments.runs", "count"},
	{"experiments.batch_s", "s"},
	{"experiments.straggler_s", "s"},
	{"experiments.decide_s.CORP", "s"},
	{"experiments.decide_s.RCCR", "s"},
	{"experiments.decide_s.CloudScale", "s"},
	{"experiments.decide_s.DRA", "s"},
	{"core.observe_ms_p50", "ms"},
	{"core.observe_ms_tail", "ms"},
	{"core.refresh_ms_p50", "ms"},
	{"core.refresh_ms_tail", "ms"},
	{"core.place_ms_p50", "ms"},
	{"core.place_ms_tail", "ms"},
	{"core.submit_us_p50", "us"},
	{"core.release_us_p50", "us"},
	{"core.vmdown_us_p50", "us"},
	{"core.grants", "count"},
	{"core.revoked", "count"},
	{"core.pending_max", "count"},
	{"core.grant_wait_slots_p50", "slots"},
	{"core.grant_wait_slots_tail", "slots"},
	{"core.grant_digests_distinct", "count"},
	{"trace.traced_wall_s", "s"},
	{"trace.untraced_wall_s", "s"},
	{"trace.overhead", "ratio"},
}

// record is the full result written beside the summary: inputs, box
// fingerprint, every repetition and every check.
type record struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Traced    bool              `json:"traced"`
	Box       box               `json:"box"`
	Reference string            `json:"reference_digest,omitempty"`
	Reps      []repRecord       `json:"reps"`
	Setups    []float64         `json:"setup_s"`
	Problems  []string          `json:"problems"`
	FailRate  float64           `json:"fail_rate"`
	Steps     timing            `json:"step_ms"`
	Metrics   map[string]metric `json:"metrics"`
	EndToEnd  map[string]metric `json:"end_to_end,omitempty"`
	Timings   map[string]timing `json:"layer_timings,omitempty"`
}

type repRecord struct {
	Traced    bool    `json:"traced"`
	WallS     float64 `json:"wall_s"`
	AllocMB   float64 `json:"alloc_mb"`
	Digest    string  `json:"digest"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
}

func main() {
	name := flag.String("workload", "", "workload name: scale-burst, fig06-quick, controller-online or scale-faulted")
	seed := flag.Int64("seed", defaultSeed, "workload seed")
	seconds := flag.Float64("seconds", 10, "measurement budget in seconds")
	traceFlag := flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for result records and trace files")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *traceFlag == 1, *out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, traced bool, outDir string) error {
	ws := workloads()
	w := findWorkload(ws, name)
	if w == nil {
		var names []string
		for _, w := range ws {
			names = append(names, w.name)
		}
		return fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
	}
	refs, err := referenceDigests()
	if err != nil {
		return err
	}
	reference := ""
	if seed == defaultSeed && w.gateDigest {
		// The benchmark's tests require an entry for every gated workload.
		reference = refs[w.name]
	}
	fp := fingerprint()
	fmt.Printf("box: cpu=%q nproc=%d gomaxprocs=%d go=%s calib_ns=%.0f\n",
		fp.CPU, fp.NProc, fp.GOMAXPROCS, fp.GoVersion, fp.CalibNs)

	var tr *tracer
	if traced {
		tr = newTracer()
	}
	o, err := measure(w, seed, seconds, traced, reference, tr)
	if err != nil {
		return err
	}
	attempted, failed := o.attemptedFailed()
	failRate := float64(failed) / float64(max(attempted, 1))

	var metrics map[string]metric
	var steps []float64
	for _, r := range o.reps {
		steps = append(steps, r.steps...)
	}
	rec := record{
		Workload: w.name, Seed: seed, Seconds: seconds, Traced: traced, Box: fp,
		Reference: reference, Setups: o.setups, Problems: o.problems,
		FailRate: failRate, Steps: summarize(steps),
	}
	for _, r := range o.reps {
		rec.Reps = append(rec.Reps, repRecord{false, r.wallS, r.allocMB, r.digest, r.attempted, r.failed})
	}
	for _, r := range o.tracedRep {
		rec.Reps = append(rec.Reps, repRecord{true, r.wallS, r.allocMB, r.digest, r.attempted, r.failed})
	}
	e2e := o.endToEnd()
	if traced {
		metrics, rec.Timings = o.perLayer()
		rec.EndToEnd = e2e
		for _, k := range sortedKeys(rec.Timings) {
			t := rec.Timings[k]
			fmt.Printf("layer timing %s: p50 %.4f, p%g %.4f, %d samples\n", k, t.P50, t.TailP, t.Tail, t.N)
		}
		path := filepath.Join(outDir, "traces", fmt.Sprintf("%s-seed%d.json", w.name, seed))
		if err := tr.write(path); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
		fmt.Printf("trace: %d spans written to %s\n", len(tr.spans), path)
	} else {
		metrics = e2e
	}
	rec.Metrics = metrics

	fmt.Printf("workload=%s seed=%d traced=%v reps=%d traced_reps=%d setups=%d\n",
		w.name, seed, traced, len(o.reps), len(o.tracedRep), len(o.setups))
	for _, r := range o.reps {
		fmt.Printf("  rep wall_s=%.4f alloc_mb=%.1f digest=%s attempted=%d failed=%d\n", r.wallS, r.allocMB, r.digest, r.attempted, r.failed)
	}
	for _, r := range o.tracedRep {
		fmt.Printf("  traced rep wall_s=%.4f alloc_mb=%.1f digest=%s\n", r.wallS, r.allocMB, r.digest)
	}
	fmt.Printf("digests distinct=%d reference=%q\n", o.digestsDistinct, reference)
	fmt.Printf("fail_rate %.6f (%d failed of %d attempted)\n", failRate, failed, attempted)
	fmt.Printf("steps: %d samples, mean %.4f ms, p50 %.4f ms, p%g %.4f ms\n", len(steps), mean(steps), median(steps), w.tailP, percentile(steps, w.tailP))
	for _, p := range rec.Problems {
		fmt.Println("problem:", p)
	}
	for _, k := range sortedKeys(metrics) {
		fmt.Printf("%-34s %14.6f %s\n", k, metrics[k].Value, metrics[k].Unit)
	}

	recPath := filepath.Join(outDir, "results", fmt.Sprintf("%s-seed%d-trace%d.json", w.name, seed, boolToInt(traced)))
	if err := writeJSON(recPath, rec); err != nil {
		return fmt.Errorf("write record: %w", err)
	}
	line, err := json.Marshal(summary{
		Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics,
	})
	if err != nil {
		return fmt.Errorf("encode summary: %w", err)
	}
	fmt.Println(string(line))
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
