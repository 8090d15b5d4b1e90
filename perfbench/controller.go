package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/job"
	"repro/internal/resource"
	"repro/internal/trace"
)

// controllerSize is the controller-online input: fleet, loop length, load
// and VM failure schedule.
type controllerSize struct {
	pms, vms int
	slots    int
	jobs     int
	// downProb is the per-slot probability that one random VM fails; it
	// recovers after downMin..downMin+downSpan-1 slots.
	downProb          float64
	downMin, downSpan int
}

// controllerOnline is one closed-loop caller driving core.Controller slot
// by slot on a 60-VM cluster-profile fleet. tiny shrinks it for the
// benchmark's own tests.
func controllerOnline(tiny bool) *benchWorkload {
	size := controllerSize{pms: 20, vms: 60, slots: 1200, jobs: 2400, downProb: 0.02, downMin: 5, downSpan: 16}
	if tiny {
		size = controllerSize{pms: 4, vms: 8, slots: 120, jobs: 160, downProb: 0.05, downMin: 3, downSpan: 6}
	}
	return &benchWorkload{
		// Two repetitions of 1200 slots leave 24 steps beyond p99. Set-up
		// takes milliseconds, so its median is taken over many.
		name: "controller-online", minReps: 2, minSetups: 15, tailP: 99,
		setup: func(seed int64, tr *tracer) (prepared, error) {
			return prepareController(seed, size, tr)
		},
	}
}

type controllerPrepared struct {
	size      controllerSize
	ctrl      *core.Controller
	residents []*job.Job
	arrivals  [][]*job.Job // short jobs by arrival slot
	duration  map[job.ID]int
	seed      int64
	layers    map[string]float64
}

// prepareController generates the resident telemetry and the short-job
// arrivals, reserves the residents' share of every VM and builds the
// controller.
func prepareController(seed int64, size controllerSize, tr *tracer) (*controllerPrepared, error) {
	t0 := tr.now()
	cl, err := cluster.New(cluster.Config{Profile: cluster.ProfileCluster, NumPMs: size.pms, NumVMs: size.vms})
	if err != nil {
		return nil, err
	}
	caps := make([]resource.Vector, len(cl.VMs))
	for i, vm := range cl.VMs {
		caps[i] = vm.Capacity
	}
	residents, err := trace.GenerateResidents(trace.ResidentConfig{
		Seed: seed, Horizon: size.slots, ReservedShare: 0.6,
	}, caps, 1_000_000)
	if err != nil {
		return nil, err
	}
	for i, vm := range cl.VMs {
		if err := vm.Reserve(residents[i].Request); err != nil {
			return nil, err
		}
	}
	jobs, err := trace.GenerateShortJobs(trace.Config{
		Seed: seed, NumJobs: size.jobs, ArrivalSpan: size.slots - 30, VMCapacity: caps[0],
	})
	if err != nil {
		return nil, err
	}
	arrivals := make([][]*job.Job, size.slots)
	duration := make(map[job.ID]int, len(jobs))
	for _, j := range jobs {
		arrivals[j.Arrival] = append(arrivals[j.Arrival], j)
		duration[j.ID] = j.Duration
	}
	t1 := tr.now()
	ctrl, err := core.NewController(cl, core.Config{Seed: seed, Workers: 1})
	if err != nil {
		return nil, err
	}
	p := &controllerPrepared{size: size, ctrl: ctrl, residents: residents, arrivals: arrivals, duration: duration, seed: seed}
	if tr != nil {
		t2 := tr.now()
		tr.add("workload.build", 0, t0, t1)
		tr.add("core.new", 0, t1, t2)
		p.layers = map[string]float64{"workload.build_s": (t1 - t0) / 1e6}
	}
	return p, nil
}

// call classes of ObserveSlot, known before the call is made.
const (
	classObserve = "core.observe_ms" // no refresh due, nothing pending
	classRefresh = "core.refresh_ms" // Slot() % Window() == 0
	classPlace   = "core.place_ms"   // pending jobs, no refresh
)

// classify names the work an ObserveSlot call will do.
func classify(slot, window, pending int) string {
	switch {
	case slot%window == 0:
		return classRefresh
	case pending > 0:
		return classPlace
	default:
		return classObserve
	}
}

// loopState is the caller's side of the closed loop.
type loopState struct {
	granted   map[job.ID]int // job -> slot its current grant ends
	waitFrom  map[job.ID]int // job -> slot it was (re)queued
	dueAt     map[int][]job.ID
	submitted int
	released  int
	upAt      map[int][]int // slot -> VMs recovering then
	digest    []byte
	grantWait []float64
	grants    int
	revoked   int
	pendMax   int
}

func (p *controllerPrepared) run(tr *tracer) (*rep, error) {
	ctrl := p.ctrl
	size := p.size
	rng := rand.New(rand.NewSource(p.seed ^ 0x0c0ffee))
	st := &loopState{
		granted: map[job.ID]int{}, waitFrom: map[job.ID]int{},
		dueAt: map[int][]job.ID{}, upAt: map[int][]int{},
	}
	r := &rep{}
	fail := func(msg string) {
		r.failed++
		r.problems = append(r.problems, msg)
	}
	// A slot's grant and conservation checks are charged to its one
	// ObserveSlot call, which fails at most once.
	var observeOK bool
	observeFail := func(msg string) {
		observeOK = false
		r.problems = append(r.problems, msg)
	}
	samples := map[string][]float64{}
	unused := make([]resource.Vector, size.vms)
	var slotSpan int
	timeCall := func(name string, f func()) {
		if tr == nil {
			f()
			return
		}
		s := tr.now()
		f()
		e := tr.now()
		tr.add(name, slotSpan, s, e)
		samples[name] = append(samples[name], e-s)
	}

	alloc0 := totalAllocMB()
	loopStart := time.Now()
	for t := 0; t < size.slots; t++ {
		// Failures and recoveries land between slots.
		for _, v := range st.upAt[t] {
			r.attempted++
			if err := ctrl.VMUp(v); err != nil {
				fail(fmt.Sprintf("slot %d: VMUp(%d): %v", t, v, err))
			}
		}
		if rng.Float64() < size.downProb {
			v := rng.Intn(size.vms)
			if !ctrl.VMIsDown(v) {
				var lost []job.ID
				var err error
				r.attempted++
				timeCall("core.vmdown_us", func() { lost, err = ctrl.VMDown(v) })
				if err != nil {
					fail(fmt.Sprintf("slot %d: VMDown(%d): %v", t, v, err))
				}
				for _, id := range lost {
					delete(st.granted, id)
					st.waitFrom[id] = t
				}
				st.revoked += len(lost)
				up := t + size.downMin + rng.Intn(size.downSpan)
				st.upAt[up] = append(st.upAt[up], v)
			}
		}
		for v, res := range p.residents {
			unused[v] = res.UnusedAt(t)
		}
		slotSpan = tr.begin("core.slot", 0)
		stepStart := time.Now()

		arr := p.arrivals[t]
		if len(arr) > 0 {
			var err error
			r.attempted++
			timeCall("core.submit_us", func() { err = ctrl.Submit(arr) })
			if err != nil {
				fail(fmt.Sprintf("slot %d: Submit: %v", t, err))
			} else {
				st.submitted += len(arr)
				for _, j := range arr {
					st.waitFrom[j.ID] = t
				}
			}
		}
		st.pendMax = max(st.pendMax, ctrl.Pending())
		class := classify(ctrl.Slot(), ctrl.Window(), ctrl.Pending())
		var grants []core.Grant
		var err error
		r.attempted++
		observeOK = true
		timeCall(class, func() { grants, err = ctrl.ObserveSlot(unused) })
		if err != nil {
			observeFail(fmt.Sprintf("slot %d: ObserveSlot: %v", t, err))
		}
		for _, g := range grants {
			st.record(g, t)
			if ctrl.VMIsDown(g.VM) {
				observeFail(fmt.Sprintf("slot %d: job %d granted on down VM %d", t, g.Job, g.VM))
			}
			if _, dup := st.granted[g.Job]; dup {
				observeFail(fmt.Sprintf("slot %d: job %d granted twice", t, g.Job))
			}
			due := t + p.duration[g.Job] - 1
			st.granted[g.Job] = due
			st.dueAt[due] = append(st.dueAt[due], g.Job)
			st.grantWait = append(st.grantWait, float64(t-st.waitFrom[g.Job]))
		}
		for _, id := range st.dueAt[t] {
			if end, ok := st.granted[id]; !ok || end != t {
				continue // revoked and requeued since
			}
			r.attempted++
			timeCall("core.release_us", func() { err = ctrl.Release(id) })
			if err != nil {
				fail(fmt.Sprintf("slot %d: Release(%d): %v", t, id, err))
			}
			delete(st.granted, id)
			st.released++
		}
		delete(st.dueAt, t)
		r.steps = append(r.steps, float64(time.Since(stepStart).Nanoseconds())/1e6)
		tr.end(slotSpan)
		if got := ctrl.Active() + ctrl.Pending() + st.released; got != st.submitted {
			observeFail(fmt.Sprintf("slot %d: active %d + pending %d + released %d != submitted %d",
				t, ctrl.Active(), ctrl.Pending(), st.released, st.submitted))
		}
		if !observeOK {
			r.failed++
		}
	}
	r.wallS = time.Since(loopStart).Seconds()
	r.allocMB = totalAllocMB() - alloc0
	sum := sha256.Sum256(st.digest)
	r.digest = hex.EncodeToString(sum[:12])
	if tr != nil {
		r.layers = p.layers
		r.layers["core.grants"] = float64(st.grants)
		r.layers["core.revoked"] = float64(st.revoked)
		r.layers["core.pending_max"] = float64(st.pendMax)
		// Span samples are µs; the ObserveSlot classes report ms.
		for _, c := range []string{classObserve, classRefresh, classPlace} {
			samples[c] = scaled(samples[c], 1e-3)
		}
		samples["core.grant_wait_slots"] = st.grantWait
		r.samples = samples
	}
	return r, nil
}

// record folds one grant into the loop's grant digest.
func (st *loopState) record(g core.Grant, t int) {
	st.grants++
	var b [8]byte
	for _, v := range []uint64{uint64(t), uint64(g.Job), uint64(g.VM), boolBit(g.Opportunistic)} {
		binary.LittleEndian.PutUint64(b[:], v)
		st.digest = append(st.digest, b[:]...)
	}
	for _, a := range g.Alloc {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(a))
		st.digest = append(st.digest, b[:]...)
	}
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}
