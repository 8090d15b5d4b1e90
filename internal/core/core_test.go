package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/job"
	"repro/internal/predict"
	"repro/internal/resource"
)

func testCluster(t *testing.T) *cluster.Cluster {
	t.Helper()
	cl, err := cluster.New(cluster.Config{NumPMs: 2, NumVMs: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Residents reserve 60% of each VM so opportunistic pools exist.
	for _, vm := range cl.VMs {
		if err := vm.Reserve(vm.Capacity.Scale(0.6)); err != nil {
			t.Fatal(err)
		}
	}
	return cl
}

func newController(t *testing.T, cl *cluster.Cluster) *Controller {
	t.Helper()
	c, err := NewController(cl, Config{
		Seed:      1,
		Predictor: predict.CorpConfig{Pth: 0.05, Epsilon: 0.9},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func steadyUnused(cl *cluster.Cluster) []resource.Vector {
	unused := make([]resource.Vector, len(cl.VMs))
	for v := range unused {
		unused[v] = resource.New(1.5, 6, 60)
	}
	return unused
}

func mkJob(id int, cpu, mem, sto float64) *job.Job {
	return &job.Job{
		ID: job.ID(id), Duration: 3, SLOFactor: 2,
		Usage: []resource.Vector{
			resource.New(cpu, mem, sto),
			resource.New(cpu, mem, sto),
			resource.New(cpu, mem, sto),
		},
		Request: resource.New(cpu, mem, sto),
	}
}

func TestNewControllerValidation(t *testing.T) {
	if _, err := NewController(nil, Config{}); err == nil {
		t.Error("nil cluster should fail")
	}
	if _, err := NewController(&cluster.Cluster{}, Config{}); err == nil {
		t.Error("empty cluster should fail")
	}
	c := newController(t, testCluster(t))
	if c.Window() != 6 {
		t.Errorf("Window = %d", c.Window())
	}
}

func TestObserveSlotValidatesInput(t *testing.T) {
	cl := testCluster(t)
	c := newController(t, cl)
	if _, err := c.ObserveSlot(nil); err == nil {
		t.Error("wrong vector count should fail")
	}
	bad := steadyUnused(cl)
	bad[0] = resource.New(-1, 0, 0)
	if _, err := c.ObserveSlot(bad); err == nil {
		t.Error("negative unused should fail")
	}
}

// warm advances the controller through n slots of steady telemetry.
func warm(t *testing.T, c *Controller, cl *cluster.Cluster, n int) []Grant {
	t.Helper()
	var grants []Grant
	for i := 0; i < n; i++ {
		g, err := c.ObserveSlot(steadyUnused(cl))
		if err != nil {
			t.Fatal(err)
		}
		grants = append(grants, g...)
	}
	return grants
}

func TestSubmitAndPlaceLifecycle(t *testing.T) {
	cl := testCluster(t)
	c := newController(t, cl)
	warm(t, c, cl, 80)

	jobs := []*job.Job{mkJob(1, 0.8, 1, 5), mkJob(2, 0.1, 4, 5)}
	if err := c.Submit(jobs); err != nil {
		t.Fatal(err)
	}
	if c.Pending() != 2 {
		t.Fatalf("Pending = %d", c.Pending())
	}
	grants := warm(t, c, cl, 6)
	if len(grants) != 2 {
		t.Fatalf("got %d grants: %+v", len(grants), grants)
	}
	if c.Pending() != 0 || c.Active() != 2 {
		t.Errorf("pending=%d active=%d", c.Pending(), c.Active())
	}
	for _, g := range grants {
		if !g.Alloc.NonNegative() || g.Alloc.IsZero() {
			t.Errorf("grant alloc %v invalid", g.Alloc)
		}
		if g.VM < 0 || g.VM >= len(cl.VMs) {
			t.Errorf("grant VM %d out of range", g.VM)
		}
	}
	// Ledgers reflect the grants.
	var total resource.Vector
	for v := range cl.VMs {
		total = total.Add(c.OppInUse(v)).Add(c.FreshInUse(v))
	}
	if total.IsZero() {
		t.Error("ledgers empty after grants")
	}
	// Release both; ledgers drain.
	for _, g := range grants {
		if err := c.Release(g.Job); err != nil {
			t.Fatal(err)
		}
	}
	for v := range cl.VMs {
		if !c.OppInUse(v).IsZero() || !c.FreshInUse(v).IsZero() {
			t.Errorf("VM %d ledger not drained", v)
		}
	}
	if c.Active() != 0 {
		t.Errorf("Active = %d after release", c.Active())
	}
}

func TestSubmitRejectsDuplicates(t *testing.T) {
	cl := testCluster(t)
	c := newController(t, cl)
	j := mkJob(1, 0.5, 1, 1)
	if err := c.Submit([]*job.Job{j}); err != nil {
		t.Fatal(err)
	}
	if err := c.Submit([]*job.Job{j}); err == nil {
		t.Error("duplicate pending submit should fail")
	}
	warm(t, c, cl, 80)
	if c.Active() != 1 {
		t.Fatalf("job not placed")
	}
	if err := c.Submit([]*job.Job{j}); err == nil {
		t.Error("duplicate active submit should fail")
	}
}

func TestSubmitRejectsInvalidSpec(t *testing.T) {
	c := newController(t, testCluster(t))
	if err := c.Submit([]*job.Job{{ID: 1}}); err == nil {
		t.Error("invalid spec should fail")
	}
}

func TestReleaseUnknownFails(t *testing.T) {
	c := newController(t, testCluster(t))
	if err := c.Release(99); err == nil {
		t.Error("releasing unknown job should fail")
	}
}

func TestCancelPending(t *testing.T) {
	cl := testCluster(t)
	c := newController(t, cl)
	j := mkJob(1, 100, 100, 100) // cannot ever place
	if err := c.Submit([]*job.Job{j}); err != nil {
		t.Fatal(err)
	}
	warm(t, c, cl, 12)
	if c.Pending() != 1 {
		t.Fatalf("oversized job should stay pending")
	}
	if err := c.Cancel(1); err != nil {
		t.Fatal(err)
	}
	if c.Pending() != 0 {
		t.Error("cancel did not drain queue")
	}
	if err := c.Cancel(1); err == nil {
		t.Error("double cancel should fail")
	}
}

func TestDrainOutcomesFlows(t *testing.T) {
	cl := testCluster(t)
	c := newController(t, cl)
	warm(t, c, cl, 30)
	if len(c.DrainOutcomes()) == 0 {
		t.Error("matured outcomes expected after warm slots")
	}
}

func TestOpportunisticGrantsArriveWhenUnlocked(t *testing.T) {
	cl := testCluster(t)
	c := newController(t, cl)
	// Long steady warmup with a loose gate: predictions unlock.
	warm(t, c, cl, 90)
	if err := c.Submit([]*job.Job{mkJob(1, 0.5, 1, 5)}); err != nil {
		t.Fatal(err)
	}
	grants := warm(t, c, cl, 6)
	if len(grants) != 1 {
		t.Fatalf("got %d grants", len(grants))
	}
	if !grants[0].Opportunistic {
		t.Error("steady telemetry with loose gate should yield opportunistic grants")
	}
}

func TestVMDownEvictsAndRequeues(t *testing.T) {
	cl := testCluster(t)
	c := newController(t, cl)
	warm(t, c, cl, 80)
	jobs := []*job.Job{mkJob(1, 0.8, 1, 5), mkJob(2, 0.1, 4, 5)}
	if err := c.Submit(jobs); err != nil {
		t.Fatal(err)
	}
	grants := warm(t, c, cl, 6)
	if len(grants) != 2 {
		t.Fatalf("got %d grants", len(grants))
	}
	victim := grants[0].VM
	var want []job.ID
	for _, g := range grants {
		if g.VM == victim {
			want = append(want, g.Job)
		}
	}
	lost, err := c.VMDown(victim)
	if err != nil {
		t.Fatal(err)
	}
	if len(lost) != len(want) {
		t.Fatalf("VMDown evicted %v, want %d jobs", lost, len(want))
	}
	for i := 1; i < len(lost); i++ {
		if lost[i-1] >= lost[i] {
			t.Errorf("evicted IDs not ascending: %v", lost)
		}
	}
	if !c.VMIsDown(victim) {
		t.Error("VMIsDown false after VMDown")
	}
	if !c.OppInUse(victim).IsZero() || !c.FreshInUse(victim).IsZero() {
		t.Error("dead VM's ledgers not cleared")
	}
	if c.Pending() != len(lost) {
		t.Errorf("Pending = %d, want %d requeued jobs", c.Pending(), len(lost))
	}
	// Idempotent: a second VMDown is a no-op.
	if again, err := c.VMDown(victim); err != nil || again != nil {
		t.Errorf("second VMDown = %v, %v", again, err)
	}
	// Requeued jobs place again, and never on the dead VM.
	regrants := warm(t, c, cl, 12)
	for _, g := range regrants {
		if g.VM == victim {
			t.Errorf("job %d placed on down VM %d", g.Job, victim)
		}
	}
	if c.Pending() != 0 {
		t.Errorf("Pending = %d after replacement rounds", c.Pending())
	}
	// Recovery re-admits the VM.
	if err := c.VMUp(victim); err != nil {
		t.Fatal(err)
	}
	if c.VMIsDown(victim) {
		t.Error("VMIsDown true after VMUp")
	}
	if _, err := c.VMDown(99); err == nil {
		t.Error("VMDown out of range should fail")
	}
	if err := c.VMUp(-1); err == nil {
		t.Error("VMUp out of range should fail")
	}
}

func TestGrantsSnapshotAndAdjustment(t *testing.T) {
	cl := testCluster(t)
	c := newController(t, cl)
	warm(t, c, cl, 80)
	// A job whose demand rises sharply mid-life: the per-window
	// adjustment should grow its grant.
	j := &job.Job{
		ID: 5, Duration: 24, SLOFactor: 3,
		Usage: func() []resource.Vector {
			var u []resource.Vector
			for i := 0; i < 24; i++ {
				v := 0.3
				if i >= 6 {
					v = 1.2
				}
				u = append(u, resource.New(v, v, v))
			}
			return u
		}(),
		Request: resource.New(1.2, 1.2, 1.2),
	}
	if err := c.Submit([]*job.Job{j}); err != nil {
		t.Fatal(err)
	}
	grants := warm(t, c, cl, 6)
	if len(grants) != 1 {
		t.Fatalf("got %d grants", len(grants))
	}
	initial := grants[0].Alloc.At(resource.CPU)
	// Advance past the demand step and at least one refresh.
	warm(t, c, cl, 13)
	snap := c.Grants()
	g, ok := snap[5]
	if !ok {
		t.Fatal("grant missing from snapshot")
	}
	if g.Alloc.At(resource.CPU) <= initial {
		t.Errorf("grant did not grow with demand: %v → %v", initial, g.Alloc.At(resource.CPU))
	}
	// Snapshot is a copy: mutating it must not affect the controller.
	g.Alloc = resource.New(999, 999, 999)
	snap[5] = g
	if c.Grants()[5].Alloc.At(resource.CPU) > 900 {
		t.Error("snapshot mutation leaked into the controller")
	}
}

// TestControllerGrantsDeterministic drives two controllers with the same
// seed through the same telemetry, arrivals, releases and VMDown/VMUp
// schedule, and demands bitwise-identical grant sequences and ledgers
// after every slot. Live grants are re-sized in adjustActive, whose
// float ledger updates must not depend on map iteration order.
func TestControllerGrantsDeterministic(t *testing.T) {
	slots := 400
	if testing.Short() {
		slots = 150
	}
	a := controllerTranscript(t, slots)
	b := controllerTranscript(t, slots)
	if len(a) != len(b) {
		t.Fatalf("transcripts differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("transcripts diverge at entry %d:\n  %s\n  %s", i, a[i], b[i])
		}
	}
}

// controllerTranscript runs a seeded closed loop and returns one line per
// grant and per slot ledger state, with floats as exact bit patterns.
func controllerTranscript(t *testing.T, slots int) []string {
	t.Helper()
	cl, err := cluster.New(cluster.Config{Profile: cluster.ProfileCluster, NumPMs: 4, NumVMs: 12})
	if err != nil {
		t.Fatal(err)
	}
	for _, vm := range cl.VMs {
		if err := vm.Reserve(vm.Capacity.Scale(0.6)); err != nil {
			t.Fatal(err)
		}
	}
	c, err := NewController(cl, Config{Seed: 7, Predictor: predict.CorpConfig{Pth: 0.05, Epsilon: 0.9}})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	bits := func(v resource.Vector) string {
		return fmt.Sprintf("%x/%x/%x", math.Float64bits(v[0]), math.Float64bits(v[1]), math.Float64bits(v[2]))
	}
	var out []string
	due := map[int][]job.ID{}
	upAt := map[int][]int{}
	unused := make([]resource.Vector, len(cl.VMs))
	nextID := 0
	for s := 0; s < slots; s++ {
		for _, v := range upAt[s] {
			if err := c.VMUp(v); err != nil {
				t.Fatal(err)
			}
		}
		if rng.Float64() < 0.03 {
			v := rng.Intn(len(cl.VMs))
			lost, err := c.VMDown(v)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, fmt.Sprintf("slot %d down %d lost %v", s, v, lost))
			up := s + 3 + rng.Intn(10)
			upAt[up] = append(upAt[up], v)
		}
		var arr []*job.Job
		for k := rng.Intn(4); k > 0; k-- {
			dur := 2 + rng.Intn(12)
			usage := make([]resource.Vector, dur)
			for i := range usage {
				usage[i] = resource.New(0.1+0.4*rng.Float64(), 0.2+rng.Float64(), 1+5*rng.Float64())
			}
			arr = append(arr, &job.Job{ID: job.ID(nextID), Duration: dur, SLOFactor: 2, Usage: usage,
				Request: resource.New(0.5, 1.2, 6)})
			nextID++
		}
		if err := c.Submit(arr); err != nil {
			t.Fatal(err)
		}
		for v := range unused {
			f := 0.5 + 0.5*math.Sin(float64(s+3*v)/7)
			unused[v] = resource.New(1.5*f, 6*f, 60*f)
		}
		grants, err := c.ObserveSlot(unused)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range grants {
			out = append(out, fmt.Sprintf("slot %d grant %d vm %d opp %v %s", s, g.Job, g.VM, g.Opportunistic, bits(g.Alloc)))
			end := s + 2 + int(g.Job)%9
			due[end] = append(due[end], g.Job)
		}
		for _, id := range due[s] {
			if _, live := c.active[id]; live {
				if err := c.Release(id); err != nil {
					t.Fatal(err)
				}
			}
		}
		for v := range cl.VMs {
			out = append(out, fmt.Sprintf("slot %d vm %d opp %s fresh %s", s, v, bits(c.OppInUse(v)), bits(c.FreshInUse(v))))
		}
	}
	return out
}
