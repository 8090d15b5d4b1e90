package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/resource"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/workload"
)

// scaleBurst is the scale profile (5000 PMs / 20000 VMs) under a 350k
// short-job RCCR burst: small, long jobs arriving over 60 slots. tiny
// shrinks it for the benchmark's own tests.
func scaleBurst(tiny bool) *benchWorkload {
	return simWorkload("scale-burst", func(seed int64) sim.Config {
		cfg := scaleConfig(seed, 5000, 20000, 350_000)
		if tiny {
			cfg = scaleConfig(seed, 50, 200, 3500)
		}
		return cfg
	})
}

// scaleFaulted is a quarter of scaleBurst's fleet and load plus 500 long
// jobs under VM and PM crashes, resident surges and scheduler delays.
func scaleFaulted(tiny bool) *benchWorkload {
	return simWorkload("scale-faulted", func(seed int64) sim.Config {
		cfg := scaleConfig(seed, 1250, 5000, 87_500)
		cfg.LongJobs = 500
		if tiny {
			cfg = scaleConfig(seed, 25, 100, 1750)
			cfg.LongJobs = 10
		}
		cfg.Faults = faults.Config{
			Seed:        seed,
			VMCrashProb: 5e-4,
			PMCrashProb: 5e-5,
			SurgeProb:   1e-3,
			DelayProb:   2.5e-3,
		}
		return cfg
	})
}

func scaleConfig(seed int64, pms, vms, jobs int) sim.Config {
	cfg := sim.Config{
		Profile: cluster.ProfileScale,
		NumPMs:  pms, NumVMs: vms, NumJobs: jobs,
		Seed:   seed,
		Warmup: 30, ArrivalSpan: 60, Drain: 90,
		Scheduler: scheduler.Config{Scheme: scheduler.RCCR, Seed: seed},
		Workers:   1,
	}
	cfg.Jobs.MeanDuration = 30
	cfg.Jobs.VMCapacity = resource.Vector{0.5, 2, 8}
	return cfg
}

// simWorkload is one sim.Run per repetition on a freshly prepared
// workload snapshot. Two repetitions let a seed without a reference digest
// be checked for repeat-equality; set-up's median is taken over three.
func simWorkload(name string, config func(int64) sim.Config) *benchWorkload {
	return &benchWorkload{
		name: name, minReps: 2, minSetups: 3, tailP: batchTailP, gateDigest: true,
		setup: func(seed int64, tr *tracer) (prepared, error) {
			return prepareSim(config(seed), tr)
		},
	}
}

type simPrepared struct {
	cfg    sim.Config
	layers map[string]float64
}

// prepareSim is the set-up phase: generate the workload snapshot cold (the
// process-wide cache is emptied first), then build its resident tables
// and, for CORP, its history.
func prepareSim(cfg sim.Config, tr *tracer) (*simPrepared, error) {
	workload.Default.Reset()
	p := &simPrepared{cfg: cfg}
	t0 := tr.now()
	snap, err := sim.PrepareWorkload(cfg)
	if err != nil {
		return nil, err
	}
	t1 := tr.now()
	snap.Tables()
	if cfg.Scheduler.Scheme == scheduler.CORP {
		if _, _, err := snap.History(); err != nil {
			return nil, err
		}
	}
	if tr != nil {
		t2 := tr.now()
		tr.add("workload.build", 0, t0, t1)
		tr.add("workload.tables", 0, t1, t2)
		p.layers = map[string]float64{
			"workload.build_s":     (t1 - t0) / 1e6,
			"workload.tables_s":    (t2 - t1) / 1e6,
			"workload.snapshot_mb": float64(snap.Bytes()) / (1 << 20),
		}
	}
	p.cfg.Prepared = snap
	return p, nil
}

// batchTailP is step_tail_ms's percentile on a batch workload: one step
// per repetition leaves no percentile above the median ten steps beyond.
const batchTailP = 50

func (p *simPrepared) run(tr *tracer) (*rep, error) {
	epoch := time.Now()
	cfg := p.cfg
	var clk *decisionClock
	if tr != nil {
		epoch = tr.epoch
		clk = newDecisionClock(epoch)
		cfg.Clock = clk
	}
	alloc0 := totalAllocMB()
	start := sinceMicros(epoch)
	res, err := sim.Run(cfg)
	end := sinceMicros(epoch)
	r := simRep(res, err)
	r.wallS = (end - start) / 1e6
	r.allocMB = totalAllocMB() - alloc0
	r.steps = []float64{r.wallS * 1e3}
	if err == nil && tr != nil {
		r.layers = p.layers
		traceSimRun(tr, r, res, clk, start, end)
	}
	return r, nil
}

// simRep judges one simulation: an error, a broken invariant or an
// undigestable result fails it.
func simRep(res *sim.Result, err error) *rep {
	r := &rep{attempted: 1}
	if err != nil {
		r.failed = 1
		r.problems = []string{err.Error()}
		return r
	}
	r.problems = resultProblems(res)
	if r.digest, err = resultDigest(res); err != nil {
		r.problems = append(r.problems, fmt.Sprintf("digest: %v", err))
	}
	if len(r.problems) > 0 {
		r.failed = 1
	}
	return r
}

// simCounts sums the deterministic work counts of simulation results.
type simCounts struct{ slots, jobs, placements, neverPlaced int }

func (c *simCounts) add(r *sim.Result) {
	c.slots += r.Slots
	c.jobs += r.NumJobs
	c.placements += r.PlacedOpportunistic + r.PlacedFresh
	c.neverPlaced += r.NeverPlaced
}

func (c simCounts) into(l map[string]float64) {
	l["sim.slots"] = float64(c.slots)
	l["sim.jobs"] = float64(c.jobs)
	l["sim.placements"] = float64(c.placements)
	l["sim.never_placed"] = float64(c.neverPlaced)
}

// traceSimRun records the run span with one child per scheduler decision
// and derives the sim, scheduler and faults layer metrics from them.
func traceSimRun(tr *tracer, r *rep, res *sim.Result, clk *decisionClock, start, end float64) {
	root := tr.add("sim.run", 0, start, end)
	var decideUs []float64
	decideS := 0.0
	for _, d := range clk.decisions() {
		tr.add("scheduler.decide", root, d[0], d[1])
		decideUs = append(decideUs, d[1]-d[0])
		decideS += (d[1] - d[0]) / 1e6
	}
	runS := tr.span(root).seconds()
	selfS := tr.selfSeconds(root)
	var counts simCounts
	counts.add(res)
	placements := counts.placements
	l := r.layers
	counts.into(l)
	l["sim.run_s"] = runS
	l["sim.self_s"] = selfS
	l["sim.self_us_per_slot"] = selfS * 1e6 / float64(max(res.Slots, 1))
	l["scheduler.decisions"] = float64(len(decideUs))
	l["scheduler.decide_s"] = decideS
	l["scheduler.decide_share"] = decideS / runS
	l["faults.vm_crashes"] = float64(res.Recovery.VMCrashes)
	l["faults.evictions"] = float64(res.Recovery.Evictions)
	l["faults.retries"] = float64(res.Recovery.Retries)
	l["faults.evict_ratio"] = float64(res.Recovery.Evictions) / float64(max(placements, 1))
	r.samples = map[string][]float64{"scheduler.decide_us": decideUs}
}

// fig06Quick is the Fig. 6 prediction-error figure in quick mode (20 PMs /
// 60 VMs, 3 job counts × 4 schemes), run in-process over the shared worker
// budget. tiny shrinks every simulation the figure runs.
func fig06Quick(tiny bool) *benchWorkload {
	return &benchWorkload{
		// Set-up takes milliseconds, so its median is taken over many.
		name: "fig06-quick", minReps: 2, minSetups: 15, tailP: batchTailP, gateDigest: true,
		setup: func(seed int64, tr *tracer) (prepared, error) {
			return prepareFigure(seed, tiny, tr)
		},
	}
}

type figurePrepared struct {
	opts   experiments.Options
	tiny   bool
	layers map[string]float64
}

// fig06Points is the quick figure's number of job counts.
const fig06Points = 3

// shrink is the tiny variant's edit to every simulation of the figure.
func shrink(cfg *sim.Config) {
	cfg.NumPMs, cfg.NumVMs = 4, 8
	cfg.NumJobs /= 10
	cfg.Warmup, cfg.ArrivalSpan, cfg.Drain = 30, 20, 30
}

// prepareFigure is the figure's set-up: the figure regenerates its inputs
// inside every call (that cost stays in wall_s), so set-up measures the
// same generation on its own. A dry run through the RunBatch seam lists
// the sweep's configs without simulating; each distinct workload is then
// generated cold with its tables and CORP history, and the cache is
// emptied again so the timed figure starts cold, as a fresh process does.
func prepareFigure(seed int64, tiny bool, tr *tracer) (*figurePrepared, error) {
	opts := experiments.Options{Profile: cluster.ProfileCluster, Seed: seed, Quick: true}
	var cfgs []sim.Config
	dry := opts
	dry.RunBatch = func(batch []sim.Config) ([]*sim.Result, error) {
		out := make([]*sim.Result, len(batch))
		for i, c := range batch {
			if tiny {
				shrink(&c)
			}
			cfgs = append(cfgs, c)
			out[i] = &sim.Result{}
		}
		return out, nil
	}
	if _, err := experiments.Fig06PredictionError(dry); err != nil {
		return nil, fmt.Errorf("list sweep: %w", err)
	}
	workload.Default.Reset()
	t0 := tr.now()
	var bytes int64
	seen := map[string]bool{}
	for _, c := range cfgs {
		snap, err := sim.PrepareWorkload(c)
		if err != nil {
			return nil, err
		}
		snap.Tables()
		if c.Scheduler.Scheme == scheduler.CORP {
			if _, _, err := snap.History(); err != nil {
				return nil, err
			}
		}
		if !seen[snap.Key()] {
			seen[snap.Key()] = true
			bytes += snap.Bytes()
		}
	}
	workload.Default.Reset()
	p := &figurePrepared{opts: opts, tiny: tiny}
	if tr != nil {
		t1 := tr.now()
		tr.add("workload.build", 0, t0, t1)
		p.layers = map[string]float64{
			"workload.build_s":     (t1 - t0) / 1e6,
			"workload.snapshot_mb": float64(bytes) / (1 << 20),
		}
	}
	return p, nil
}

// batchRecord is what the traced executor learns about one batch.
type batchRecord struct {
	span        int
	completions []float64 // progress timestamps, µs
}

// runClock is one simulation's decision clock with its scheme and batch.
type runClock struct {
	clk    *decisionClock
	scheme string
	batch  int // index into the traced run's batches
}

func (p *figurePrepared) run(tr *tracer) (*rep, error) {
	epoch := time.Now()
	if tr != nil {
		epoch = tr.epoch
	}
	var (
		clocks  []runClock
		batches []*batchRecord
		counts  simCounts
		root    int
	)
	opts := p.opts
	// The executor is the in-process default, sim.RunManyProgress. The
	// traced run gives every config its own decision clock, brackets each
	// batch and timestamps completions.
	opts.RunBatch = func(cfgs []sim.Config) ([]*sim.Result, error) {
		cfgs = append([]sim.Config(nil), cfgs...)
		for i := range cfgs {
			if p.tiny {
				shrink(&cfgs[i])
			}
		}
		if tr == nil {
			return sim.RunManyProgress(cfgs, 0, nil)
		}
		for i := range cfgs {
			clk := newDecisionClock(epoch)
			cfgs[i].Clock = clk
			clocks = append(clocks, runClock{clk, cfgs[i].Scheduler.Scheme.String(), len(batches)})
		}
		b := &batchRecord{span: tr.begin("experiments.batch", root)}
		batches = append(batches, b)
		var mu sync.Mutex
		res, err := sim.RunManyProgress(cfgs, 0, func(done, total int) {
			mu.Lock()
			b.completions = append(b.completions, tr.now())
			mu.Unlock()
		})
		tr.end(b.span)
		for _, r := range res {
			if r != nil {
				counts.add(r)
			}
		}
		return res, err
	}
	root = tr.begin("experiments.fig06", 0)
	alloc0 := totalAllocMB()
	start := sinceMicros(epoch)
	fig, err := experiments.Fig06PredictionError(opts)
	end := sinceMicros(epoch)
	tr.end(root)
	r := figureRep(fig, err)
	r.wallS = (end - start) / 1e6
	r.allocMB = totalAllocMB() - alloc0
	r.steps = []float64{r.wallS * 1e3}
	if err == nil && tr != nil {
		r.layers = p.layers
		counts.into(r.layers)
		traceFigure(tr, r, clocks, batches)
	}
	return r, nil
}

// figureRep judges one figure call like simRep judges a simulation.
func figureRep(fig *experiments.Figure, err error) *rep {
	r := &rep{attempted: 1}
	if err != nil {
		r.failed = 1
		r.problems = []string{err.Error()}
		return r
	}
	r.problems = figureProblems(fig, fig06Points)
	if r.digest, err = figureDigest(fig); err != nil {
		r.problems = append(r.problems, fmt.Sprintf("digest: %v", err))
	}
	if len(r.problems) > 0 {
		r.failed = 1
	}
	return r
}

// traceFigure records the decision spans under their batch and derives
// the experiments, scheduler and workload-cache metrics.
func traceFigure(tr *tracer, r *rep, clocks []runClock, batches []*batchRecord) {
	l := r.layers
	cache := workload.Default.Stats()
	l["workload.cache_hits"] = float64(cache.Hits)
	l["workload.cache_misses"] = float64(cache.Misses)
	l["experiments.batches"] = float64(len(batches))
	l["experiments.runs"] = float64(len(clocks))
	batchS, straggler := 0.0, 0.0
	for _, b := range batches {
		batchS += tr.span(b.span).seconds()
		c := append([]float64(nil), b.completions...)
		sort.Float64s(c)
		if n := len(c); n >= 2 {
			straggler += (c[n-1] - c[n-2]) / 1e6
		}
	}
	l["experiments.batch_s"] = batchS
	l["experiments.straggler_s"] = straggler
	var decideUs []float64
	decideS := 0.0
	for _, c := range clocks {
		for _, d := range c.clk.decisions() {
			tr.add("scheduler.decide", batches[c.batch].span, d[0], d[1])
			us := d[1] - d[0]
			decideUs = append(decideUs, us)
			decideS += us / 1e6
			l["experiments.decide_s."+c.scheme] += us / 1e6
		}
	}
	l["scheduler.decisions"] = float64(len(decideUs))
	l["scheduler.decide_s"] = decideS
	r.samples = map[string][]float64{"scheduler.decide_us": decideUs}
}
