// Package core assembles the paper's primary contribution — the CORP
// cooperative opportunistic resource-provisioning controller — for live
// use. Where package sim drives the same machinery against synthetic
// workloads, core.Controller is the embeddable control loop a cluster
// manager would run: feed it per-VM unused-resource telemetry every slot,
// submit arriving short-lived jobs, and apply the grants it returns.
//
// The controller pipeline per Section III of the paper:
//
//  1. every slot, per-VM unused-resource telemetry trains the online DNN
//     (Eqs. 5–8) and updates the HMM observation stream;
//  2. every window of L slots, each VM's unused resources for the next
//     window are forecast, corrected for predicted peaks/valleys
//     (Eqs. 9–17), made conservative by the confidence interval
//     (Eqs. 18–19), and gated by Eq. 21;
//  3. pending jobs are packed into complementary entities (Section III-B)
//     and placed on the most-matched VM (Eq. 22), preferring unlocked
//     predicted-unused pools and falling back to unallocated headroom.
package core

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"repro/internal/cluster"
	"repro/internal/job"
	"repro/internal/predict"
	"repro/internal/resource"
	"repro/internal/scheduler"
)

// Config parameterizes a Controller.
type Config struct {
	// Predictor tunes the DNN+HMM prediction pipeline; the zero value
	// uses the paper's Table II defaults.
	Predictor predict.CorpConfig
	// DisablePacking turns complementary packing off.
	DisablePacking bool
	// AllocMargin sizes per-job allocations (mean demand × margin,
	// capped at the declared peak); zero defaults to 1.15.
	AllocMargin float64
	// Seed drives deterministic initialization.
	Seed int64
	// Workers sizes the parallel prediction engine that shards the
	// per-VM Observe/Refresh work; <= 1 runs serially. Grants are
	// bit-identical at any worker count.
	Workers int
}

// Grant is one allocation decision returned by Submit.
type Grant struct {
	Job           job.ID
	VM            int
	Alloc         resource.Vector
	Opportunistic bool
}

// Controller is the live CORP control loop. It is not safe for concurrent
// use; callers serialize ObserveSlot/Submit/Release.
type Controller struct {
	cfg   Config
	cl    *cluster.Cluster
	sched scheduler.Scheduler

	slot       int
	window     int
	oppInUse   []resource.Vector
	freshInUse []resource.Vector
	down       []bool
	active     map[job.ID]Grant
	specs      map[job.ID]*job.Job
	grantSlot  map[job.ID]int
	pending    []*job.Job
	pendingIDs map[job.ID]bool

	// adjustIDs is adjustActive's reused job-ID scratch.
	adjustIDs []job.ID
}

// NewController builds a controller over the cluster.
func NewController(cl *cluster.Cluster, cfg Config) (*Controller, error) {
	if cl == nil || len(cl.VMs) == 0 {
		return nil, errors.New("core: cluster with at least one VM required")
	}
	sched, err := scheduler.New(scheduler.Config{
		Scheme:          scheduler.CORP,
		Corp:            cfg.Predictor,
		Seed:            cfg.Seed,
		DisablePacking:  cfg.DisablePacking,
		CorpAllocMargin: cfg.AllocMargin,
		Workers:         cfg.Workers,
	}, cl)
	if err != nil {
		return nil, err
	}
	return &Controller{
		cfg:        cfg,
		cl:         cl,
		sched:      sched,
		window:     sched.Window(),
		oppInUse:   make([]resource.Vector, len(cl.VMs)),
		freshInUse: make([]resource.Vector, len(cl.VMs)),
		down:       make([]bool, len(cl.VMs)),
		active:     make(map[job.ID]Grant),
		specs:      make(map[job.ID]*job.Job),
		grantSlot:  make(map[job.ID]int),
		pendingIDs: make(map[job.ID]bool),
	}, nil
}

// Window returns the prediction window L in slots.
func (c *Controller) Window() int { return c.window }

// Slot returns how many slots have been observed.
func (c *Controller) Slot() int { return c.slot }

// ObserveSlot advances one time slot: unused[v] is the measured
// allocated-but-unused vector of VM v this slot. Forecasts refresh every
// Window-th call, and any pending jobs are then re-offered for placement.
// It returns the grants issued this slot (nil on non-refresh slots with no
// pending work).
func (c *Controller) ObserveSlot(unused []resource.Vector) ([]Grant, error) {
	if len(unused) != len(c.cl.VMs) {
		return nil, fmt.Errorf("core: %d unused vectors for %d VMs", len(unused), len(c.cl.VMs))
	}
	for v, u := range unused {
		if !u.NonNegative() {
			return nil, fmt.Errorf("core: negative unused %v on VM %d", u, v)
		}
	}
	if bo, ok := c.sched.(scheduler.BatchObserver); ok {
		// The engine fans the per-VM predictor updates across its
		// workers; down VMs produce no telemetry and their predictor
		// state stays frozen until recovery.
		bo.ObserveAll(unused, c.down)
	} else {
		for v, u := range unused {
			if c.down[v] {
				continue
			}
			c.sched.Observe(v, u)
		}
	}
	if c.slot%c.window == 0 {
		c.sched.Refresh()
		c.adjustActive()
	}
	c.slot++
	if len(c.pending) == 0 {
		return nil, nil
	}
	return c.place()
}

// adjustActive re-sizes live grants to their jobs' current demand when the
// scheme supports dynamic adjustment (CORP's "dynamically allocates the
// corrected amount"). Callers observe the new sizes via Grants. Grants are
// visited in ascending job-ID order: each one folds into the float ledgers
// oppInUse/freshInUse, and float addition is not associative, so a map's
// random order would make the ledgers, and every later placement, vary
// from run to run.
func (c *Controller) adjustActive() {
	adj, ok := c.sched.(scheduler.Adjuster)
	if !ok {
		return
	}
	ids := c.adjustIDs[:0]
	for id := range c.active {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	c.adjustIDs = ids
	for _, id := range ids {
		g := c.active[id]
		spec := c.specs[id]
		if spec == nil {
			continue
		}
		// Without per-job progress telemetry the controller uses the
		// slot offset since the grant as the demand index.
		k := c.slot - c.grantSlot[id]
		newAlloc, changed := adj.AdjustAlloc(spec, spec.DemandAt(k))
		if !changed {
			continue
		}
		if g.Opportunistic {
			c.oppInUse[g.VM] = c.oppInUse[g.VM].Sub(g.Alloc).ClampNonNegative().Add(newAlloc)
		} else {
			head := c.cl.VMs[g.VM].Capacity.Sub(c.cl.VMs[g.VM].Reserved()).
				Sub(c.freshInUse[g.VM]).ClampNonNegative()
			grow := newAlloc.Sub(g.Alloc).ClampNonNegative().Min(head)
			newAlloc = g.Alloc.Min(newAlloc).Add(grow)
			c.freshInUse[g.VM] = c.freshInUse[g.VM].Sub(g.Alloc).ClampNonNegative().Add(newAlloc)
		}
		g.Alloc = newAlloc
		c.active[id] = g
	}
}

// Grants returns a snapshot of the live grants keyed by job ID.
func (c *Controller) Grants() map[job.ID]Grant {
	out := make(map[job.ID]Grant, len(c.active))
	for id, g := range c.active {
		out[id] = g
	}
	return out
}

// Submit queues jobs for placement; grants are issued on this or
// subsequent ObserveSlot calls. Jobs must have unique IDs among active and
// pending work.
func (c *Controller) Submit(jobs []*job.Job) error {
	for _, j := range jobs {
		if err := j.Validate(); err != nil {
			return fmt.Errorf("core: %w", err)
		}
		if _, ok := c.active[j.ID]; ok {
			return fmt.Errorf("core: job %d already active", j.ID)
		}
		if c.pendingIDs[j.ID] {
			return fmt.Errorf("core: job %d already pending", j.ID)
		}
		c.pending = append(c.pending, j)
		c.pendingIDs[j.ID] = true
	}
	return nil
}

// Pending returns the number of jobs queued for placement.
func (c *Controller) Pending() int { return len(c.pending) }

// Active returns the number of jobs with live grants.
func (c *Controller) Active() int { return len(c.active) }

// place runs one placement round over the pending queue.
func (c *Controller) place() ([]Grant, error) {
	views := make([]scheduler.VMView, len(c.cl.VMs))
	for v, vm := range c.cl.VMs {
		if c.down[v] {
			views[v] = scheduler.VMView{Down: true}
			continue
		}
		views[v] = scheduler.VMView{
			FreshAvailable: vm.Capacity.Sub(vm.Reserved()).Sub(c.freshInUse[v]).ClampNonNegative(),
			OppInUse:       c.oppInUse[v],
		}
	}
	placements := c.sched.Place(c.pending, views)
	if len(placements) == 0 {
		return nil, nil
	}
	var grants []Grant
	placed := make(map[job.ID]bool)
	for _, p := range placements {
		for i, spec := range p.Jobs {
			g := Grant{Job: spec.ID, VM: p.VM, Alloc: p.Allocs[i], Opportunistic: p.Opportunistic}
			if p.Opportunistic {
				c.oppInUse[p.VM] = c.oppInUse[p.VM].Add(g.Alloc)
			} else {
				c.freshInUse[p.VM] = c.freshInUse[p.VM].Add(g.Alloc)
			}
			c.active[g.Job] = g
			c.specs[g.Job] = spec
			c.grantSlot[g.Job] = c.slot
			placed[g.Job] = true
			grants = append(grants, g)
		}
	}
	kept := c.pending[:0]
	for _, j := range c.pending {
		if placed[j.ID] {
			delete(c.pendingIDs, j.ID)
		} else {
			kept = append(kept, j)
		}
	}
	c.pending = kept
	return grants, nil
}

// Release returns a finished job's grant to its pool. Releasing an unknown
// job is an error so double-releases surface instead of corrupting the
// ledgers.
func (c *Controller) Release(id job.ID) error {
	g, ok := c.active[id]
	if !ok {
		return fmt.Errorf("core: job %d has no active grant", id)
	}
	if g.Opportunistic {
		c.oppInUse[g.VM] = c.oppInUse[g.VM].Sub(g.Alloc).ClampNonNegative()
	} else {
		c.freshInUse[g.VM] = c.freshInUse[g.VM].Sub(g.Alloc).ClampNonNegative()
	}
	delete(c.active, id)
	delete(c.specs, id)
	delete(c.grantSlot, id)
	return nil
}

// Cancel removes a still-pending job from the queue.
func (c *Controller) Cancel(id job.ID) error {
	if !c.pendingIDs[id] {
		return fmt.Errorf("core: job %d is not pending", id)
	}
	kept := c.pending[:0]
	for _, j := range c.pending {
		if j.ID != id {
			kept = append(kept, j)
		}
	}
	c.pending = kept
	delete(c.pendingIDs, id)
	return nil
}

// VMDown marks VM v failed: it stops receiving telemetry and placements,
// and every live grant on it is revoked with its job requeued for
// placement elsewhere. The requeued job IDs are returned in ascending
// order so callers can restart the work deterministically.
func (c *Controller) VMDown(v int) ([]job.ID, error) {
	if v < 0 || v >= len(c.cl.VMs) {
		return nil, fmt.Errorf("core: no VM %d", v)
	}
	if c.down[v] {
		return nil, nil
	}
	c.down[v] = true
	var lost []job.ID
	for id, g := range c.active {
		if g.VM == v {
			lost = append(lost, id)
		}
	}
	sort.Slice(lost, func(a, b int) bool { return lost[a] < lost[b] })
	for _, id := range lost {
		spec := c.specs[id]
		delete(c.active, id)
		delete(c.specs, id)
		delete(c.grantSlot, id)
		if spec != nil {
			c.pending = append(c.pending, spec)
			c.pendingIDs[id] = true
		}
	}
	// Whatever the dead VM owed is gone with it.
	c.oppInUse[v] = resource.Vector{}
	c.freshInUse[v] = resource.Vector{}
	return lost, nil
}

// VMUp marks VM v recovered; it re-enters telemetry and placement on the
// next ObserveSlot.
func (c *Controller) VMUp(v int) error {
	if v < 0 || v >= len(c.cl.VMs) {
		return fmt.Errorf("core: no VM %d", v)
	}
	c.down[v] = false
	return nil
}

// VMIsDown reports whether VM v is currently marked failed.
func (c *Controller) VMIsDown(v int) bool { return c.down[v] }

// DrainOutcomes exposes matured prediction errors for monitoring. The
// returned slice is a reused buffer, valid until the next DrainOutcomes
// call; callers that retain samples must copy them out.
func (c *Controller) DrainOutcomes() []predict.ErrorSample {
	return c.sched.DrainOutcomes()
}

// OppInUse returns VM v's outstanding opportunistic grants.
func (c *Controller) OppInUse(v int) resource.Vector { return c.oppInUse[v] }

// FreshInUse returns VM v's outstanding fresh grants.
func (c *Controller) FreshInUse(v int) resource.Vector { return c.freshInUse[v] }
