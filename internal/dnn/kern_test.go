package dnn

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// sameBits reports the first index where two slices differ bitwise.
func sameBits(a, b []float64) (int, bool) {
	if len(a) != len(b) {
		return -1, false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i, false
		}
	}
	return 0, true
}

// checkSameNetwork fails unless a and b hold bitwise-identical parameters.
func checkSameNetwork(t *testing.T, ctx string, a, b *Network) {
	t.Helper()
	if i, ok := sameBits(a.wslab, b.wslab); !ok {
		t.Fatalf("%s: weights differ at slab index %d", ctx, i)
	}
	if i, ok := sameBits(a.bslab, b.bslab); !ok {
		t.Fatalf("%s: biases differ at slab index %d", ctx, i)
	}
}

// checkMirror fails unless a fresh mirror equals the transpose bitwise.
func checkMirror(t *testing.T, ctx string, n *Network) {
	t.Helper()
	if !n.mirrorOK {
		return
	}
	for d, wc := range n.mirror {
		in, out := n.sizes[d], n.sizes[d+1]
		if (wc != nil) != (out >= mirrorMinFanOut) {
			t.Fatalf("%s: layer %d (fan-out %d) mirror presence %v", ctx, d, out, wc != nil)
		}
		for i := 0; wc != nil && i < out; i++ {
			for j := 0; j < in; j++ {
				if math.Float64bits(wc[j*out+i]) != math.Float64bits(n.weights[d][i*in+j]) {
					t.Fatalf("%s: layer %d mirror[%d] != weights[%d]", ctx, d, j*out+i, i*in+j)
				}
			}
		}
	}
}

func requireVecKernels(t *testing.T) {
	t.Helper()
	if !useVecKernels {
		t.Skip("no vector training kernels on this CPU")
	}
}

// mirrorWriters are the parameter writers other than the training step.
// Each is applied identically to the vector-trained and the scalar-trained
// network; afterwards the vector network's mirror must be rebuilt before
// its next step, or the comparison diverges.
var mirrorWriters = []struct {
	name  string
	apply func(t *testing.T, n *Network, rng *rand.Rand) *Network
}{
	{"Load", func(t *testing.T, n *Network, _ *rand.Rand) *Network {
		var buf bytes.Buffer
		if err := n.Save(&buf); err != nil {
			t.Fatal(err)
		}
		m, err := Load(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}},
	{"Pretrain", func(t *testing.T, n *Network, rng *rand.Rand) *Network {
		if err := n.Pretrain(randomInputs(rng, 4, n.sizes[0]), 1, rng.Int63()); err != nil {
			t.Fatal(err)
		}
		return n
	}},
	{"MomentumStep", func(t *testing.T, n *Network, rng *rand.Rand) *Network {
		m := NewMomentumTrainer(n, 0.9)
		for _, s := range randomSamples(rng, 3, n) {
			if _, err := m.Accumulate(s.Input, s.Target); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.Step(); err != nil {
			t.Fatal(err)
		}
		return n
	}},
	{"TrainParallel", func(t *testing.T, n *Network, rng *rand.Rand) *Network {
		opts := ParallelOptions{TrainOptions: TrainOptions{MaxEpochs: 1, Seed: rng.Int63()}, Workers: 2}
		if _, err := n.TrainParallel(randomSamples(rng, 6, n), opts); err != nil {
			t.Fatal(err)
		}
		return n
	}},
	{"Clone", func(_ *testing.T, n *Network, _ *rand.Rand) *Network { return n.Clone() }},
}

func randomInputs(rng *rand.Rand, count, width int) [][]float64 {
	out := make([][]float64, count)
	for i := range out {
		out[i] = make([]float64, width)
		for j := range out[i] {
			out[i][j] = rng.Float64()
		}
	}
	return out
}

func randomSamples(rng *rand.Rand, count int, n *Network) []Sample {
	ins := randomInputs(rng, count, n.sizes[0])
	tgts := randomInputs(rng, count, n.sizes[len(n.sizes)-1])
	out := make([]Sample, count)
	for i := range out {
		out[i] = Sample{Input: ins[i], Target: tgts[i]}
	}
	return out
}

// TestVecKernelMatchesScalarOracle trains random topologies (2–5 layers,
// widths 1–70) with the vector step and the pure-Go step side by side and
// demands bitwise-identical losses, weights and biases after every step,
// with the mirror equal to the transpose. Every mirror-invalidating writer
// is interleaved between steps, with the writer's draws made once and
// replayed for both networks.
func TestVecKernelMatchesScalarOracle(t *testing.T) {
	requireVecKernels(t)
	cases, steps := 14, 2000
	if testing.Short() {
		cases, steps = 5, 400
	}
	rng := rand.New(rand.NewSource(20261017))
	for c := 0; c < cases; c++ {
		sizes := make([]int, 2+rng.Intn(4))
		for i := range sizes {
			sizes[i] = 1 + rng.Intn(70)
		}
		if c == 0 {
			sizes = append(sizes[:0], tableIIShape...)
		}
		cfg := Config{LayerSizes: sizes, LearningRate: 0.05 + 1.5*rng.Float64(), Seed: rng.Int63()}
		t.Run(fmt.Sprint(sizes), func(t *testing.T) {
			vec, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref := vec.Clone()
			in := make([]float64, sizes[0])
			tgt := make([]float64, sizes[len(sizes)-1])
			writerSeed := rng.Int63()
			for step := 0; step < steps; step++ {
				if step%97 == 96 {
					w := mirrorWriters[(step/97)%len(mirrorWriters)]
					vec = w.apply(t, vec, rand.New(rand.NewSource(writerSeed+int64(step))))
					ref = w.apply(t, ref, rand.New(rand.NewSource(writerSeed+int64(step))))
					checkMirror(t, fmt.Sprintf("after %s at step %d", w.name, step), vec)
					checkSameNetwork(t, fmt.Sprintf("after %s at step %d", w.name, step), vec, ref)
				}
				for i := range in {
					in[i] = rng.Float64()
				}
				for i := range tgt {
					tgt[i] = rng.Float64()
				}
				lv := vec.trainOneVec(in, tgt)
				lr := ref.trainOneScalar(in, tgt)
				ctx := fmt.Sprintf("step %d", step)
				if math.Float64bits(lv) != math.Float64bits(lr) {
					t.Fatalf("%s: loss %v (vector) != %v (scalar)", ctx, lv, lr)
				}
				checkSameNetwork(t, ctx, vec, ref)
				checkMirror(t, ctx, vec)
			}
		})
	}
}

// TestScalarFallbackRuns forces the pure-Go kernels through the dispatch
// variable, so the fallback every non-AVX2 machine runs is executed on
// this one too: TrainBatch on the forced path must leave the mirror
// stale, and switching paths mid-training (which invalidates and
// rebuilds the mirror) must not change a bit.
func TestScalarFallbackRuns(t *testing.T) {
	saved := useVecKernels
	defer func() { useVecKernels = saved }()

	const batch = 6
	rng := rand.New(rand.NewSource(4))
	ins := make([]float64, batch*tableIIShape[0])
	tgts := make([]float64, batch)
	train := func(n *Network, forceScalar func(round int) bool) {
		for round := 0; round < 60; round++ {
			useVecKernels = saved && !forceScalar(round)
			for i := range ins {
				ins[i] = rng.Float64()
			}
			for i := range tgts {
				tgts[i] = rng.Float64()
			}
			if _, err := n.TrainBatch(ins, tgts); err != nil {
				t.Fatal(err)
			}
			if !useVecKernels && n.mirrorOK {
				t.Fatalf("round %d: scalar step left the mirror marked fresh", round)
			}
		}
	}

	scalar, _ := New(Config{LayerSizes: tableIIShape, Seed: 8})
	mixed := scalar.Clone()
	rng.Seed(4)
	train(scalar, func(int) bool { return true })
	rng.Seed(4)
	train(mixed, func(round int) bool { return round%3 == 1 })
	checkSameNetwork(t, "scalar vs mixed dispatch", scalar, mixed)
	checkMirror(t, "mixed", mixed)
}
