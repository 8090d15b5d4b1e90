// Package dnn is a from-scratch deep neural network substrate implementing
// exactly the model of the paper's Section III-A: a fully connected
// feed-forward network with sigmoid activations (Eq. 5), back-propagated
// error terms (Eqs. 6–7), and SGD weight updates (Eq. 8), trained for
// multiple epochs until a held-out validation error converges. Greedy
// layer-wise autoencoder pretraining is provided as well ("for training, it
// first computes the hidden activation[,] the reconstructed output from the
// hidden activation[,] the error gradient, and ... back-propagates").
//
// Table II fixes the paper's topology: h = 4 layers with 50 units per
// hidden layer.
//
// # Flat kernels
//
// The paper flags DNN computation as CORP's main overhead, and this
// network sits in the simulator's per-slot inner loop, so the compute core
// is written as contiguous allocation-free kernels: each layer's weights
// are one flat []float64 (row-major, stride = fan-in) carved from a single
// slab, activations/deltas/scratch are preallocated, and the hot loops are
// register-blocked so several output neurons accumulate in parallel.
// Every kernel preserves the exact per-element floating-point accumulation
// order of the original jagged implementation (ascending fan-in index),
// so results are bit-identical to the seed — equivalence_test.go pins
// this against a reconstructed jagged reference. On AVX2 hardware the
// training step runs vector kernels instead (kern.go), bit-identical to
// the pure-Go ones, which stay as the fallback and the test oracle.
package dnn

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// Config describes a network topology and training hyperparameters.
type Config struct {
	// LayerSizes lists unit counts from the input layer to the output
	// layer inclusive, e.g. {Δ, 50, 50, 1} for the paper's 4-layer net.
	LayerSizes []int

	// LearningRate is μ in Eq. 8. Zero defaults to 0.5 (sigmoid nets
	// train comfortably at this rate on [0,1]-normalized data).
	LearningRate float64

	// Seed drives the deterministic weight initialization.
	Seed int64
}

// Network is a feed-forward sigmoid MLP.
type Network struct {
	sizes []int
	rate  float64

	// weights[d] is the flat row-major weight matrix of layer d → d+1:
	// weights[d][i*fanIn+j] is the weight from layer-d neuron j to
	// layer-(d+1) neuron i. All layers are views into one slab so Clone
	// and averaging are single sweeps.
	weights [][]float64
	biases  [][]float64
	wslab   []float64
	bslab   []float64

	// scratch buffers reused across calls; Network is NOT safe for
	// concurrent use (clone per goroutine instead).
	acts   [][]float64
	deltas [][]float64
	tmp    []float64 // backward scratch (error sums or rate·δ), widest layer

	// mirror[d] is the transposed copy of weights[d] the vector training
	// path forwards with (kern.go); nil for narrow layers and until the
	// first vector step. mirrorOK reports it equal to the transpose.
	mirror   [][]float64
	mirrorOK bool

	// batch is the network-owned scratch behind ForwardBatch, grown lazily.
	batch *BatchScratch
}

// newShell allocates a network's slabs and views for the given topology
// without initializing weights.
func newShell(sizes []int, rate float64) *Network {
	n := &Network{sizes: append([]int(nil), sizes...), rate: rate}
	totalW, totalB, maxWidth := 0, 0, 0
	for d := 0; d < len(sizes)-1; d++ {
		totalW += sizes[d] * sizes[d+1]
		totalB += sizes[d+1]
	}
	for _, s := range sizes {
		if s > maxWidth {
			maxWidth = s
		}
	}
	n.wslab = make([]float64, totalW)
	n.bslab = make([]float64, totalB)
	n.weights = make([][]float64, len(sizes)-1)
	n.biases = make([][]float64, len(sizes)-1)
	wOff, bOff := 0, 0
	for d := 0; d < len(sizes)-1; d++ {
		in, out := sizes[d], sizes[d+1]
		n.weights[d] = n.wslab[wOff : wOff+in*out : wOff+in*out]
		n.biases[d] = n.bslab[bOff : bOff+out : bOff+out]
		wOff += in * out
		bOff += out
	}
	actSlab := make([]float64, 2*sum(sizes))
	n.acts = make([][]float64, len(sizes))
	n.deltas = make([][]float64, len(sizes))
	off := 0
	for d, s := range sizes {
		n.acts[d] = actSlab[off : off+s : off+s]
		n.deltas[d] = actSlab[off+s : off+2*s : off+2*s]
		off += 2 * s
	}
	n.tmp = make([]float64, maxWidth)
	return n
}

func sum(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}

// New builds a network with deterministic small random weights.
func New(cfg Config) (*Network, error) {
	if len(cfg.LayerSizes) < 2 {
		return nil, errors.New("dnn: need at least input and output layers")
	}
	for i, s := range cfg.LayerSizes {
		if s < 1 {
			return nil, fmt.Errorf("dnn: layer %d has size %d", i, s)
		}
	}
	rate := cfg.LearningRate
	if rate <= 0 {
		rate = 0.5
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := newShell(cfg.LayerSizes, rate)
	for d := 0; d < len(n.sizes)-1; d++ {
		in, out := n.sizes[d], n.sizes[d+1]
		// Xavier-style scale keeps sigmoid pre-activations in the
		// responsive region for any layer width. The flat matrix is filled
		// in the same row-major RNG order as the original jagged layout,
		// so a given seed yields the identical network.
		scale := math.Sqrt(6.0 / float64(in+out))
		w := n.weights[d]
		for i := 0; i < out*in; i++ {
			w[i] = (2*rng.Float64() - 1) * scale
		}
	}
	return n, nil
}

// NumLayers returns the number of layers including input and output
// (the paper's h).
func (n *Network) NumLayers() int { return len(n.sizes) }

// LayerSizes returns a copy of the topology.
func (n *Network) LayerSizes() []int { return append([]int(nil), n.sizes...) }

// sigmoid is F of Eq. 5.
func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// sigmoidPrime is F′ expressed in terms of the activation g:
// F′ = g·(1−g), as used by Eqs. 6–7.
func sigmoidPrime(g float64) float64 { return g * (1 - g) }

// forward runs the feed-forward kernel into the network's own scratch.
func (n *Network) forward(input []float64) {
	forwardInto(n.weights, n.biases, n.acts, input)
}

// forwardInto is the feed-forward kernel (Eq. 5). Activations land in
// acts, which the caller owns — concurrent evaluations of one network are
// safe as long as each uses its own acts buffers (see FwdScratch).
func forwardInto(weights, biases, acts [][]float64, input []float64) {
	copy(acts[0], input)
	for d := 0; d < len(weights); d++ {
		forwardLayer(weights[d], biases[d], acts[d], acts[d+1])
	}
}

// forwardLayer applies one dense layer to a single activation row: blocked
// passes accumulate eight output neurons at a time in registers, which
// breaks the one-long dependent-add chain per neuron into independent
// pipelined chains. The per-neuron accumulation order (bias, then fan-in
// ascending) is the same as a plain nested loop. The batched kernel
// (batch.go) delegates its remainder rows here, so single-row and batched
// evaluation share one definition of the layer numerics.
func forwardLayer(w, b, prev, cur []float64) {
	in := len(prev)
	i := 0
	for ; i+8 <= len(cur); i += 8 {
		r0 := w[(i+0)*in : (i+0)*in+in : (i+0)*in+in]
		r1 := w[(i+1)*in : (i+1)*in+in : (i+1)*in+in]
		r2 := w[(i+2)*in : (i+2)*in+in : (i+2)*in+in]
		r3 := w[(i+3)*in : (i+3)*in+in : (i+3)*in+in]
		r4 := w[(i+4)*in : (i+4)*in+in : (i+4)*in+in]
		r5 := w[(i+5)*in : (i+5)*in+in : (i+5)*in+in]
		r6 := w[(i+6)*in : (i+6)*in+in : (i+6)*in+in]
		r7 := w[(i+7)*in : (i+7)*in+in : (i+7)*in+in]
		s0, s1, s2, s3 := b[i], b[i+1], b[i+2], b[i+3]
		s4, s5, s6, s7 := b[i+4], b[i+5], b[i+6], b[i+7]
		for j, g := range prev {
			s0 += r0[j] * g
			s1 += r1[j] * g
			s2 += r2[j] * g
			s3 += r3[j] * g
			s4 += r4[j] * g
			s5 += r5[j] * g
			s6 += r6[j] * g
			s7 += r7[j] * g
		}
		cur[i], cur[i+1], cur[i+2], cur[i+3] = sigmoid(s0), sigmoid(s1), sigmoid(s2), sigmoid(s3)
		cur[i+4], cur[i+5], cur[i+6], cur[i+7] = sigmoid(s4), sigmoid(s5), sigmoid(s6), sigmoid(s7)
	}
	for ; i+4 <= len(cur); i += 4 {
		r0 := w[(i+0)*in : (i+0)*in+in : (i+0)*in+in]
		r1 := w[(i+1)*in : (i+1)*in+in : (i+1)*in+in]
		r2 := w[(i+2)*in : (i+2)*in+in : (i+2)*in+in]
		r3 := w[(i+3)*in : (i+3)*in+in : (i+3)*in+in]
		s0, s1, s2, s3 := b[i], b[i+1], b[i+2], b[i+3]
		for j, g := range prev {
			s0 += r0[j] * g
			s1 += r1[j] * g
			s2 += r2[j] * g
			s3 += r3[j] * g
		}
		cur[i], cur[i+1], cur[i+2], cur[i+3] = sigmoid(s0), sigmoid(s1), sigmoid(s2), sigmoid(s3)
	}
	for ; i < len(cur); i++ {
		row := w[i*in : i*in+in : i*in+in]
		sum := b[i]
		for j, g := range prev {
			sum += row[j] * g
		}
		cur[i] = sigmoid(sum)
	}
}

// Forward runs feed-forward evaluation (Eq. 5) and returns the output
// activations. The returned slice is owned by the network and overwritten
// by the next call; copy it if you need to keep it.
func (n *Network) Forward(input []float64) ([]float64, error) {
	if len(input) != n.sizes[0] {
		return nil, fmt.Errorf("dnn: input size %d, want %d", len(input), n.sizes[0])
	}
	n.forward(input)
	return n.acts[len(n.acts)-1], nil
}

// FwdScratch holds caller-owned activation buffers for ForwardInto, so
// many goroutines can evaluate one (read-only) network concurrently — the
// intra-run prediction engine gives each per-VM predictor its own scratch.
// A scratch is tied to a topology, not a specific network: it works with
// any network whose LayerSizes match the one that created it.
type FwdScratch struct {
	sizes []int
	acts  [][]float64
}

// NewFwdScratch allocates forward-pass scratch for this network's
// topology.
func (n *Network) NewFwdScratch() *FwdScratch {
	s := &FwdScratch{sizes: append([]int(nil), n.sizes...)}
	slab := make([]float64, sum(n.sizes))
	s.acts = make([][]float64, len(n.sizes))
	off := 0
	for d, sz := range n.sizes {
		s.acts[d] = slab[off : off+sz : off+sz]
		off += sz
	}
	return s
}

// ForwardInto evaluates the network using the caller's scratch and returns
// the output activations (owned by the scratch, overwritten by its next
// use). It reads only the network's weights, so concurrent calls on one
// network are safe provided no training runs concurrently and each caller
// uses its own scratch. Numerics are bit-identical to Forward.
func (n *Network) ForwardInto(s *FwdScratch, input []float64) ([]float64, error) {
	if len(input) != n.sizes[0] {
		return nil, fmt.Errorf("dnn: input size %d, want %d", len(input), n.sizes[0])
	}
	if len(s.sizes) != len(n.sizes) {
		return nil, fmt.Errorf("dnn: scratch for %d layers, network has %d", len(s.sizes), len(n.sizes))
	}
	for d, sz := range n.sizes {
		if s.sizes[d] != sz {
			return nil, fmt.Errorf("dnn: scratch topology %v, network %v", s.sizes, n.sizes)
		}
	}
	forwardInto(n.weights, n.biases, s.acts, input)
	return s.acts[len(s.acts)-1], nil
}

// trainOne is one SGD step on a validated (input, target) pair. It runs
// the AVX2 kernels where the CPU has them and the pure-Go kernels
// otherwise; both produce bit-identical networks and losses.
func (n *Network) trainOne(input, target []float64) float64 {
	if useVecKernels {
		return n.trainOneVec(input, target)
	}
	return n.trainOneScalar(input, target)
}

// outputDeltas sets the output layer's error terms (Eq. 6) from the
// forward pass in acts and returns the pre-update loss ½‖t−g‖².
func (n *Network) outputDeltas(target []float64) float64 {
	last := len(n.sizes) - 1
	var loss float64
	for i, g := range n.acts[last] {
		diff := target[i] - g
		loss += 0.5 * diff * diff
		n.deltas[last][i] = diff * sigmoidPrime(g) // Eq. 6
	}
	return loss
}

// trainOneScalar is the pure-Go fused forward+backward+update kernel for
// one sample. For each hidden layer the Eq. 7 back-propagation and the
// Eq. 8 weight update share a single blocked pass over the weight matrix:
// the error contribution is read from a weight immediately before the
// update is written, so back-propagation sees pre-update weights exactly
// as a two-pass implementation would.
func (n *Network) trainOneScalar(input, target []float64) float64 {
	n.invalidateMirror()
	n.forward(input)
	last := len(n.sizes) - 1
	loss := n.outputDeltas(target)
	rate := n.rate
	// Hidden layers: fused Eq. 7 + Eq. 8 over weights[d], d = last-1 … 1.
	for d := last - 1; d >= 1; d-- {
		w := n.weights[d]
		b := n.biases[d]
		delta := n.deltas[d+1]
		prev := n.acts[d]
		cur := n.deltas[d]
		in := len(cur)
		tmp := n.tmp[:in]
		for i := range tmp {
			tmp[i] = 0
		}
		j := 0
		for ; j+4 <= len(delta); j += 4 {
			d0, d1, d2, d3 := delta[j], delta[j+1], delta[j+2], delta[j+3]
			s0, s1, s2, s3 := rate*d0, rate*d1, rate*d2, rate*d3
			r0 := w[(j+0)*in : (j+0)*in+in : (j+0)*in+in]
			r1 := w[(j+1)*in : (j+1)*in+in : (j+1)*in+in]
			r2 := w[(j+2)*in : (j+2)*in+in : (j+2)*in+in]
			r3 := w[(j+3)*in : (j+3)*in+in : (j+3)*in+in]
			for i, g := range prev {
				t := tmp[i]
				t += d0 * r0[i]
				r0[i] += s0 * g
				t += d1 * r1[i]
				r1[i] += s1 * g
				t += d2 * r2[i]
				r2[i] += s2 * g
				t += d3 * r3[i]
				r3[i] += s3 * g
				tmp[i] = t
			}
			b[j] += s0
			b[j+1] += s1
			b[j+2] += s2
			b[j+3] += s3
		}
		for ; j < len(delta); j++ {
			dj := delta[j]
			step := rate * dj
			row := w[j*in : j*in+in : j*in+in]
			for i, g := range prev {
				tmp[i] += dj * row[i]
				row[i] += step * g
			}
			b[j] += step
		}
		for i := range cur {
			cur[i] = tmp[i] * sigmoidPrime(prev[i])
		}
	}
	// Input layer: Eq. 8 update only (no error term propagates to inputs).
	{
		w := n.weights[0]
		b := n.biases[0]
		prev := n.acts[0]
		delta := n.deltas[1]
		in := len(prev)
		i := 0
		for ; i+4 <= len(delta); i += 4 {
			s0, s1, s2, s3 := rate*delta[i], rate*delta[i+1], rate*delta[i+2], rate*delta[i+3]
			r0 := w[(i+0)*in : (i+0)*in+in : (i+0)*in+in]
			r1 := w[(i+1)*in : (i+1)*in+in : (i+1)*in+in]
			r2 := w[(i+2)*in : (i+2)*in+in : (i+2)*in+in]
			r3 := w[(i+3)*in : (i+3)*in+in : (i+3)*in+in]
			for j, g := range prev {
				r0[j] += s0 * g
				r1[j] += s1 * g
				r2[j] += s2 * g
				r3[j] += s3 * g
			}
			b[i] += s0
			b[i+1] += s1
			b[i+2] += s2
			b[i+3] += s3
		}
		for ; i < len(delta); i++ {
			step := rate * delta[i]
			row := w[i*in : i*in+in : i*in+in]
			for j, g := range prev {
				row[j] += step * g
			}
			b[i] += step
		}
	}
	return loss
}

// TrainSample performs one SGD step on a single (input, target) pair:
// feed-forward (Eq. 5), output error terms (Eq. 6), back-propagation
// (Eq. 7), and weight update (Eq. 8). It returns the pre-update squared
// error ½‖t−g‖². The call performs no heap allocations.
func (n *Network) TrainSample(input, target []float64) (float64, error) {
	if len(input) != n.sizes[0] {
		return 0, fmt.Errorf("dnn: input size %d, want %d", len(input), n.sizes[0])
	}
	last := len(n.sizes) - 1
	if len(target) != n.sizes[last] {
		return 0, fmt.Errorf("dnn: target size %d, want %d", len(target), n.sizes[last])
	}
	return n.trainOne(input, target), nil
}

// TrainBatch runs sequential SGD steps over a batch of samples stored in
// flat row-major slabs: inputs holds count×inputSize values, targets
// count×outputSize, where count = len(inputs)/inputSize. Training order
// and numerics are identical to calling TrainSample on each row in turn;
// the batched entry point exists so hot callers (the CORP online trainer
// and its replay ring) can run several steps per call with zero
// allocations and no per-sample slice bookkeeping. It returns the summed
// pre-update loss over the batch.
func (n *Network) TrainBatch(inputs, targets []float64) (float64, error) {
	inSize := n.sizes[0]
	outSize := n.sizes[len(n.sizes)-1]
	if len(inputs) == 0 || len(inputs)%inSize != 0 {
		return 0, fmt.Errorf("dnn: batch inputs length %d not a positive multiple of %d", len(inputs), inSize)
	}
	count := len(inputs) / inSize
	if len(targets) != count*outSize {
		return 0, fmt.Errorf("dnn: batch targets length %d, want %d", len(targets), count*outSize)
	}
	var loss float64
	for s := 0; s < count; s++ {
		in := inputs[s*inSize : (s+1)*inSize]
		tg := targets[s*outSize : (s+1)*outSize]
		loss += n.trainOne(in, tg)
	}
	return loss, nil
}

// Clone returns a deep copy sharing no state, so each goroutine in a
// parallel sweep can own its own network. The flat layout makes this two
// slab copies plus fresh scratch.
func (n *Network) Clone() *Network {
	c := newShell(n.sizes, n.rate)
	copy(c.wslab, n.wslab)
	copy(c.bslab, n.bslab)
	return c
}

// Sample is one supervised training pair.
type Sample struct {
	Input  []float64
	Target []float64
}

// TrainOptions controls the epoch loop.
type TrainOptions struct {
	// MaxEpochs bounds training; zero defaults to 200.
	MaxEpochs int
	// ValidationFrac is the held-out fraction (taken from the end of the
	// sample list); zero defaults to 0.2.
	ValidationFrac float64
	// Tolerance is the relative validation-error improvement below which
	// an epoch counts as converged; zero defaults to 1e-4.
	Tolerance float64
	// Patience is how many consecutive converged epochs stop training;
	// zero defaults to 5.
	Patience int
	// Seed drives epoch shuffling.
	Seed int64
}

func (o TrainOptions) withDefaults() TrainOptions {
	if o.MaxEpochs <= 0 {
		o.MaxEpochs = 200
	}
	if o.ValidationFrac <= 0 || o.ValidationFrac >= 1 {
		o.ValidationFrac = 0.2
	}
	if o.Tolerance <= 0 {
		o.Tolerance = 1e-4
	}
	if o.Patience <= 0 {
		o.Patience = 5
	}
	return o
}

// TrainResult reports how a training run went.
type TrainResult struct {
	Epochs          int
	TrainLoss       float64 // mean per-sample loss of the final epoch
	ValidationLoss  float64 // mean held-out loss after the final epoch
	Converged       bool    // stopped by the convergence criterion
	ValidationCount int
}

// Train runs the paper's training loop: repeat epochs over the training
// set, measure the held-out validation error after each, and stop when it
// converges to a low value (or MaxEpochs).
func (n *Network) Train(samples []Sample, opts TrainOptions) (TrainResult, error) {
	opts = opts.withDefaults()
	if len(samples) == 0 {
		return TrainResult{}, errors.New("dnn: no training samples")
	}
	nVal := int(float64(len(samples)) * opts.ValidationFrac)
	if nVal >= len(samples) {
		nVal = len(samples) - 1
	}
	train := samples[:len(samples)-nVal]
	val := samples[len(samples)-nVal:]
	rng := rand.New(rand.NewSource(opts.Seed))
	order := make([]int, len(train))
	for i := range order {
		order[i] = i
	}

	res := TrainResult{ValidationCount: len(val)}
	prevVal := math.Inf(1)
	stalled := 0
	for epoch := 0; epoch < opts.MaxEpochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var trainLoss float64
		for _, idx := range order {
			s := train[idx]
			loss, err := n.TrainSample(s.Input, s.Target)
			if err != nil {
				return res, err
			}
			trainLoss += loss
		}
		res.TrainLoss = trainLoss / float64(len(train))
		res.Epochs = epoch + 1

		valLoss, err := n.Loss(val)
		if err != nil {
			return res, err
		}
		res.ValidationLoss = valLoss
		if nVal == 0 {
			valLoss = res.TrainLoss
			res.ValidationLoss = valLoss
		}
		if prevVal-valLoss < opts.Tolerance*math.Max(prevVal, 1e-12) {
			stalled++
			if stalled >= opts.Patience {
				res.Converged = true
				return res, nil
			}
		} else {
			stalled = 0
		}
		prevVal = valLoss
	}
	return res, nil
}

// Loss returns the mean ½‖t−g‖² over the samples without updating weights.
func (n *Network) Loss(samples []Sample) (float64, error) {
	if len(samples) == 0 {
		return 0, nil
	}
	var total float64
	for _, s := range samples {
		out, err := n.Forward(s.Input)
		if err != nil {
			return 0, err
		}
		if len(s.Target) != len(out) {
			return 0, fmt.Errorf("dnn: target size %d, want %d", len(s.Target), len(out))
		}
		for i, g := range out {
			d := s.Target[i] - g
			total += 0.5 * d * d
		}
	}
	return total / float64(len(samples)), nil
}
