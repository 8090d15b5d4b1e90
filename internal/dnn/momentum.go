package dnn

import (
	"errors"
	"fmt"
)

// Momentum SGD and minibatch training: classical accelerations of the
// paper's plain per-sample update (Eq. 8). The online predictors keep the
// plain rule (it is what the paper specifies); offline pretraining can opt
// into these for faster convergence.

// MomentumTrainer wraps a network with classical-momentum SGD state. Its
// velocity and gradient accumulators mirror the network's flat weight
// layout (one []float64 per layer, row-major) and its backward pass reuses
// the network's activation/delta/scratch buffers, so training allocates
// nothing per sample.
type MomentumTrainer struct {
	net      *Network
	momentum float64
	vW       [][]float64
	vB       [][]float64

	// accumulated minibatch gradients
	gW    [][]float64
	gB    [][]float64
	batch int
}

// NewMomentumTrainer builds a trainer over the network. Momentum must be
// in [0, 1); values outside are clamped.
func NewMomentumTrainer(net *Network, momentum float64) *MomentumTrainer {
	if momentum < 0 {
		momentum = 0
	}
	if momentum >= 1 {
		momentum = 0.99
	}
	t := &MomentumTrainer{net: net, momentum: momentum}
	t.vW, t.vB = flatZeros(net)
	t.gW, t.gB = flatZeros(net)
	return t
}

// flatZeros allocates zeroed parameter-shaped slabs sliced per layer.
func flatZeros(n *Network) ([][]float64, [][]float64) {
	wslab := make([]float64, len(n.wslab))
	bslab := make([]float64, len(n.bslab))
	w := make([][]float64, len(n.weights))
	b := make([][]float64, len(n.biases))
	wOff, bOff := 0, 0
	for d := range n.weights {
		w[d] = wslab[wOff : wOff+len(n.weights[d])]
		b[d] = bslab[bOff : bOff+len(n.biases[d])]
		wOff += len(n.weights[d])
		bOff += len(n.biases[d])
	}
	return w, b
}

// Accumulate computes one sample's gradient (without touching the
// weights) and folds it into the current minibatch. It returns the
// sample's pre-update loss.
func (t *MomentumTrainer) Accumulate(input, target []float64) (float64, error) {
	n := t.net
	out, err := n.Forward(input)
	if err != nil {
		return 0, err
	}
	last := len(n.sizes) - 1
	if len(target) != n.sizes[last] {
		return 0, fmt.Errorf("dnn: target size %d, want %d", len(target), n.sizes[last])
	}
	var loss float64
	for i, g := range out {
		diff := target[i] - g
		loss += 0.5 * diff * diff
		n.deltas[last][i] = diff * sigmoidPrime(g)
	}
	// Back-propagate without updating weights. Iterating rows (j) and
	// accumulating into tmp keeps the per-element addition order identical
	// to the classic i-outer/j-inner sum while reading the flat matrix
	// sequentially.
	for d := last - 1; d >= 1; d-- {
		w := n.weights[d]
		delta := n.deltas[d+1]
		cur := n.deltas[d]
		in := len(cur)
		tmp := n.tmp[:in]
		for i := range tmp {
			tmp[i] = 0
		}
		for j, dj := range delta {
			row := w[j*in : j*in+in : j*in+in]
			for i, wv := range row {
				tmp[i] += dj * wv
			}
		}
		for i := range cur {
			cur[i] = tmp[i] * sigmoidPrime(n.acts[d][i])
		}
	}
	for d := 0; d < len(n.weights); d++ {
		prev := n.acts[d]
		delta := n.deltas[d+1]
		in := len(prev)
		gw := t.gW[d]
		for i, di := range delta {
			gi := gw[i*in : i*in+in : i*in+in]
			for j, g := range prev {
				gi[j] += di * g
			}
			t.gB[d][i] += di
		}
	}
	t.batch++
	return loss, nil
}

// Step applies the accumulated minibatch gradient with momentum:
// v ← m·v + μ·ḡ; w ← w + v. It resets the accumulator. Calling Step with
// an empty batch is an error.
func (t *MomentumTrainer) Step() error {
	if t.batch == 0 {
		return errors.New("dnn: momentum step with empty batch")
	}
	n := t.net
	inv := 1 / float64(t.batch)
	for d := range n.weights {
		wi := n.weights[d]
		vi := t.vW[d]
		gi := t.gW[d]
		for j := range wi {
			vi[j] = t.momentum*vi[j] + n.rate*gi[j]*inv
			wi[j] += vi[j]
			gi[j] = 0
		}
		for i := range n.biases[d] {
			t.vB[d][i] = t.momentum*t.vB[d][i] + n.rate*t.gB[d][i]*inv
			n.biases[d][i] += t.vB[d][i]
			t.gB[d][i] = 0
		}
	}
	n.invalidateMirror()
	t.batch = 0
	return nil
}

// TrainMinibatch runs epochs of minibatch-momentum training over the
// samples in their given order and returns the mean per-sample loss of
// the final epoch. Batch sizes < 1 default to 16.
func (t *MomentumTrainer) TrainMinibatch(samples []Sample, epochs, batchSize int) (float64, error) {
	if len(samples) == 0 {
		return 0, errors.New("dnn: no samples")
	}
	if epochs < 1 {
		epochs = 1
	}
	if batchSize < 1 {
		batchSize = 16
	}
	var last float64
	for e := 0; e < epochs; e++ {
		var total float64
		for i, s := range samples {
			loss, err := t.Accumulate(s.Input, s.Target)
			if err != nil {
				return 0, err
			}
			total += loss
			if t.batch >= batchSize || i == len(samples)-1 {
				if err := t.Step(); err != nil {
					return 0, err
				}
			}
		}
		last = total / float64(len(samples))
	}
	return last, nil
}
