package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/experiments"
	"repro/internal/resource"
	"repro/internal/sim"
)

// defaultSeed is the seed the committed reference digests were recorded
// with. On any other seed the digest check falls back to equality between
// the repetitions of one invocation.
const defaultSeed = 1

//go:embed reference.json
var referenceJSON []byte

// referenceDigests maps workload name to the digest of its results at
// defaultSeed.
func referenceDigests() (map[string]string, error) {
	refs := map[string]string{}
	if err := json.Unmarshal(referenceJSON, &refs); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return refs, nil
}

func digestOf(v any) (string, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:12]), nil
}

// resultDigest is the digest of a Result's canonical JSON without the
// fields that legitimately vary between identical runs: the wall-clock
// decision time and the optional per-slot timeline.
func resultDigest(r *sim.Result) (string, error) {
	c := *r
	c.Overhead.ComputeMicros = 0
	c.Timeline = nil
	return digestOf(c)
}

// resultProblems lists the invariants a Result breaks.
func resultProblems(r *sim.Result) []string {
	var out []string
	rate := func(name string, v float64) {
		if math.IsNaN(v) || v < 0 || v > 1 {
			out = append(out, fmt.Sprintf("%s = %v outside [0,1]", name, v))
		}
	}
	for k := 0; k < resource.NumKinds; k++ {
		rate(fmt.Sprintf("Utilization[%d]", k), r.Utilization[k])
		rate(fmt.Sprintf("ClusterUtilization[%d]", k), r.ClusterUtilization[k])
	}
	rate("Overall", r.Overall)
	rate("Wastage", r.Wastage)
	rate("ClusterOverall", r.ClusterOverall)
	rate("PredictionErrorRate", r.PredictionErrorRate)
	rate("SLORate", r.SLORate)
	rate("Fairness", r.Fairness)
	rec := r.Recovery
	if rec.Evictions != rec.Retries+rec.RetriesExhausted {
		out = append(out, fmt.Sprintf("evictions %d != retries %d + exhausted %d",
			rec.Evictions, rec.Retries, rec.RetriesExhausted))
	}
	// Every job is placed for the first time once or never; evicted jobs
	// placed again add one placement event each.
	placed := r.PlacedOpportunistic + r.PlacedFresh
	if want := r.NumJobs - r.NeverPlaced + rec.Replaced; placed != want {
		out = append(out, fmt.Sprintf("placements %d != jobs %d - never placed %d + replaced %d",
			placed, r.NumJobs, r.NeverPlaced, rec.Replaced))
	}
	if r.NeverPlaced < 0 || r.NeverPlaced > r.NumJobs {
		out = append(out, fmt.Sprintf("never placed %d outside [0, %d]", r.NeverPlaced, r.NumJobs))
	}
	if got := r.SLO.Finished + r.SLO.Unfinished; got != r.NumJobs {
		out = append(out, fmt.Sprintf("finished %d + unfinished %d != jobs %d",
			r.SLO.Finished, r.SLO.Unfinished, r.NumJobs))
	}
	return out
}

// figureSeries is the part of a figure its digest covers.
type figureSeries struct {
	Label string
	X, Y  []float64
}

func figureDigest(f *experiments.Figure) (string, error) {
	s := make([]figureSeries, len(f.Series))
	for i, ser := range f.Series {
		s[i] = figureSeries{Label: ser.Label, X: ser.X, Y: ser.Y}
	}
	return digestOf(s)
}

// figureProblems checks a prediction-error figure: one point per job count
// on every series, each a rate in [0,1].
func figureProblems(f *experiments.Figure, points int) []string {
	var out []string
	if len(f.Series) == 0 {
		out = append(out, "figure has no series")
	}
	for _, s := range f.Series {
		if len(s.X) != points || len(s.Y) != points {
			out = append(out, fmt.Sprintf("%s: %d/%d points, want %d", s.Label, len(s.X), len(s.Y), points))
		}
		for i, y := range s.Y {
			if math.IsNaN(y) || y < 0 || y > 1 {
				out = append(out, fmt.Sprintf("%s[%d] = %v outside [0,1]", s.Label, i, y))
			}
		}
	}
	return out
}

// digestCheck compares one repetition's digest with the reference (at the
// default seed) or with the invocation's first repetition (otherwise).
type digestCheck struct {
	reference string
	first     string
	seen      map[string]int
}

func newDigestCheck(reference string) *digestCheck {
	return &digestCheck{reference: reference, seen: map[string]int{}}
}

// check records d and reports a mismatch, or "" when d agrees.
func (c *digestCheck) check(d string) string {
	c.seen[d]++
	if c.first == "" {
		c.first = d
	}
	switch {
	case c.reference != "" && d != c.reference:
		return fmt.Sprintf("digest %s != reference %s", d, c.reference)
	case c.reference == "" && d != c.first:
		return fmt.Sprintf("digest %s != first repetition's %s", d, c.first)
	}
	return ""
}
