package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"

	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/sim"
)

func tinyWorkloads() []*benchWorkload {
	return []*benchWorkload{scaleBurst(true), fig06Quick(true), controllerOnline(true), scaleFaulted(true)}
}

// TestTinyWorkloads runs every workload at a tiny size, untraced and
// traced: nothing fails, repetitions agree, and observing does not change
// the results.
func TestTinyWorkloads(t *testing.T) {
	for _, w := range tinyWorkloads() {
		t.Run(w.name, func(t *testing.T) {
			o, err := measure(w, 7, 0, false, "", nil)
			if err != nil {
				t.Fatal(err)
			}
			if a, f := o.attemptedFailed(); a == 0 || f != 0 {
				t.Fatalf("attempted %d failed %d: %v", a, f, o.problems)
			}
			if len(o.reps) < w.minReps || len(o.setups) < w.minSetups {
				t.Fatalf("%d reps, %d setups", len(o.reps), len(o.setups))
			}
			for name, m := range o.endToEnd() {
				if !(m.Value > 0) {
					t.Errorf("%s = %v, want > 0", name, m.Value)
				}
			}

			tr := newTracer()
			ot, err := measure(w, 7, 0, true, "", tr)
			if err != nil {
				t.Fatal(err)
			}
			if _, f := ot.attemptedFailed(); f != 0 {
				t.Fatalf("traced run failed: %v", ot.problems)
			}
			if w.gateDigest && ot.tracedRep[0].digest != o.reps[0].digest {
				t.Errorf("traced digest %s != untraced %s", ot.tracedRep[0].digest, o.reps[0].digest)
			}
			layers, _ := ot.perLayer()
			for _, m := range perLayerMetrics {
				if _, ok := layers[m.name]; !ok {
					t.Errorf("per-layer metric %s missing", m.name)
				}
			}
			if len(tr.spans) == 0 {
				t.Error("traced run recorded no spans")
			}
		})
	}
}

// TestSimSelfPlusDecideIsRun checks the sim layer's accounting: self time
// plus the decision spans is the run span.
func TestSimSelfPlusDecideIsRun(t *testing.T) {
	tr := newTracer()
	o, err := measure(scaleBurst(true), 3, 0, true, "", tr)
	if err != nil {
		t.Fatal(err)
	}
	l := o.tracedRep[0].layers
	if l["scheduler.decisions"] == 0 {
		t.Fatal("no decisions recorded")
	}
	if got, want := l["sim.self_s"]+l["scheduler.decide_s"], l["sim.run_s"]; math.Abs(got-want) > 1e-9*want {
		t.Errorf("self %v + decide %v = %v, want run %v", l["sim.self_s"], l["scheduler.decide_s"], got, want)
	}
}

// TestPerturbedResultFails shows that a changed Result field or figure
// point is counted as a failed operation and raises the fail rate.
func TestPerturbedResultFails(t *testing.T) {
	w := scaleBurst(true)
	cfg := scaleConfig(5, 50, 200, 3500)
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	good := simRep(res, nil)
	if good.failed != 0 {
		t.Fatalf("unperturbed run failed: %v", good.problems)
	}

	perturbations := map[string]func(r *sim.Result){
		"digest only":  func(r *sim.Result) { r.MeanResponseSlots += 1e-9 },
		"rate":         func(r *sim.Result) { r.Overall = 1.5 },
		"placements":   func(r *sim.Result) { r.PlacedFresh++ },
		"recovery":     func(r *sim.Result) { r.Recovery.Evictions++ },
		"slo accounts": func(r *sim.Result) { r.SLO.Finished-- },
	}
	for name, perturb := range perturbations {
		bad := *res
		perturb(&bad)
		o := &outcome{w: w}
		check := newDigestCheck(good.digest)
		for _, r := range []*rep{simRep(res, nil), simRep(&bad, nil)} {
			judge(w, check, r)
			o.reps = append(o.reps, r)
		}
		a, f := o.attemptedFailed()
		if a != 2 || f != 1 {
			t.Errorf("%s: attempted %d failed %d, want 2 and 1", name, a, f)
		}
	}

	// A run whose digest differs from the first repetition fails too when
	// no reference applies (a non-default seed).
	bad := *res
	bad.PredictionSamples++
	check := newDigestCheck("")
	r1, r2 := simRep(res, nil), simRep(&bad, nil)
	judge(w, check, r1)
	judge(w, check, r2)
	if r1.failed != 0 || r2.failed != 1 {
		t.Errorf("repeat check: failed %d and %d, want 0 and 1", r1.failed, r2.failed)
	}
}

func TestPerturbedFigurePointFails(t *testing.T) {
	fig := func() *experiments.Figure {
		f := &experiments.Figure{}
		for _, label := range []string{"CORP", "RCCR"} {
			s := &metrics.Series{Label: label}
			s.Append(50, 0.25)
			s.Append(150, 0.5)
			s.Append(300, 0.75)
			f.Series = append(f.Series, s)
		}
		return f
	}
	w := fig06Quick(true)
	good := figureRep(fig(), nil)
	if good.failed != 0 {
		t.Fatalf("unperturbed figure failed: %v", good.problems)
	}
	for name, perturb := range map[string]func(f *experiments.Figure){
		"point":    func(f *experiments.Figure) { f.Series[1].Y[2] += 1e-12 },
		"range":    func(f *experiments.Figure) { f.Series[0].Y[0] = -0.1 },
		"too few":  func(f *experiments.Figure) { f.Series[0].X = f.Series[0].X[:2] },
		"relabel":  func(f *experiments.Figure) { f.Series[0].Label = "DRA" },
		"no point": func(f *experiments.Figure) { f.Series = nil },
	} {
		bad := fig()
		perturb(bad)
		check := newDigestCheck(good.digest)
		r := figureRep(bad, nil)
		judge(w, check, r)
		if r.failed != 1 {
			t.Errorf("%s: failed %d, want 1", name, r.failed)
		}
	}
}

// TestClassifierRefreshSlots checks that every ObserveSlot call made on a
// refresh slot lands in the refresh class, whatever is pending.
func TestClassifierRefreshSlots(t *testing.T) {
	for slot := 0; slot < 30; slot++ {
		for _, pending := range []int{0, 3} {
			got := classify(slot, 6, pending)
			switch {
			case slot%6 == 0 && got != classRefresh:
				t.Errorf("slot %d pending %d: %s, want refresh", slot, pending, got)
			case slot%6 != 0 && pending > 0 && got != classPlace:
				t.Errorf("slot %d pending %d: %s, want place", slot, pending, got)
			case slot%6 != 0 && pending == 0 && got != classObserve:
				t.Errorf("slot %d pending %d: %s, want observe", slot, pending, got)
			}
		}
	}

	w := controllerOnline(true)
	tr := newTracer()
	p, err := w.setup(1, tr)
	if err != nil {
		t.Fatal(err)
	}
	r, err := p.run(tr)
	if err != nil {
		t.Fatal(err)
	}
	cp := p.(*controllerPrepared)
	want := (cp.size.slots + cp.ctrl.Window() - 1) / cp.ctrl.Window()
	if got := len(r.samples[classRefresh]); got != want {
		t.Errorf("%d refresh-class calls, want %d (one per window)", got, want)
	}
	total := len(r.samples[classRefresh]) + len(r.samples[classPlace]) + len(r.samples[classObserve])
	if total != cp.size.slots {
		t.Errorf("%d classified ObserveSlot calls, want %d", total, cp.size.slots)
	}
}

// TestReferenceDigests checks that every gated workload has a reference
// digest for the default seed.
func TestReferenceDigests(t *testing.T) {
	refs, err := referenceDigests()
	if err != nil {
		t.Fatal(err)
	}
	hex := regexp.MustCompile(`^[0-9a-f]{24}$`)
	for _, w := range workloads() {
		d, ok := refs[w.name]
		switch {
		case w.gateDigest && !hex.MatchString(d):
			t.Errorf("%s: reference digest %q", w.name, d)
		case !w.gateDigest && ok:
			t.Errorf("%s: ungated workload has a reference digest", w.name)
		}
	}
}

func TestPercentiles(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := median(xs); got != 500.5 {
		t.Errorf("median = %v", got)
	}
	if got := percentile(xs, 99); got != 990 {
		t.Errorf("p99 = %v", got)
	}
	for n, want := range map[int]float64{10000: 99.9, 1000: 99, 200: 95, 100: 90, 40: 75, 5: 50} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestSelfSecondsCountsOverlapOnce(t *testing.T) {
	tr := newTracer()
	root := tr.add("root", 0, 0, 10e6)
	tr.add("a", root, 1e6, 4e6)
	tr.add("b", root, 2e6, 5e6)  // overlaps a
	tr.add("c", root, 9e6, 12e6) // runs past the parent
	if got := tr.selfSeconds(root); got != 5 {
		t.Errorf("self = %v s, want 5", got)
	}
}

// TestBenchmarkJSONMatches checks that BENCHMARK.json declares exactly the
// metrics the program prints, with the same units.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []decl                  `json:"end_to_end"`
		PerLayer  []decl                  `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if findWorkload(workloads(), w.Name) == nil {
			t.Errorf("declared workload %s does not exist", w.Name)
		}
	}
	if len(names) != len(workloads()) {
		t.Errorf("declared workloads %v, program has %d", names, len(workloads()))
	}
	e2e := (&outcome{w: scaleBurst(true)}).endToEnd()
	if len(b.EndToEnd) != len(e2e) {
		t.Errorf("%d end-to-end metrics declared, %d printed", len(b.EndToEnd), len(e2e))
	}
	for _, d := range b.EndToEnd {
		if m, ok := e2e[d.Name]; !ok || m.Unit != d.Unit {
			t.Errorf("end-to-end %s (%s): printed %+v", d.Name, d.Unit, m)
		}
	}
	if len(b.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("%d per-layer metrics declared, %d printed", len(b.PerLayer), len(perLayerMetrics))
	}
	for i, d := range b.PerLayer {
		if m := perLayerMetrics[i]; m.name != d.Name || m.unit != d.Unit {
			t.Errorf("per-layer %d: declared %s (%s), printed %s (%s)", i, d.Name, d.Unit, m.name, m.unit)
		}
	}
}
