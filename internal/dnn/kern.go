package dnn

import "math"

// Vector training path.
//
// The online SGD step (trainOne) is CORP's main per-slot cost. Its
// backward pass vectorizes directly over the row-major weights (the fan-in
// index is contiguous within a row), but the forward pass accumulates each
// output neuron over its fan-in, and vectorizing that without reordering
// any neuron's additions needs the weights column-major. So every layer
// with at least mirrorMinFanOut output neurons also keeps a transposed
// mirror:
//
//	mirror[d][j*out+i] == weights[d][i*in+j]
//
// The vector step reads the mirror in the forward pass and updates both
// copies with the same (rate·δ_i)·a_j products, so the invariant holds
// exactly after every step. Any other writer of the weights calls
// invalidateMirror; the next vector step rebuilds the mirror first.

// mirrorMinFanOut is the smallest fan-out that gets a mirror. Narrower
// layers (the 1-unit output layer) forward with the scalar kernel.
const mirrorMinFanOut = 8

// invalidateMirror marks the mirror stale after a write to the weights
// that bypassed the vector training step.
func (n *Network) invalidateMirror() { n.mirrorOK = false }

// syncMirror (re)builds the mirror from the row-major weights, allocating
// it on first use.
func (n *Network) syncMirror() {
	if n.mirror == nil {
		n.mirror = make([][]float64, len(n.weights))
		for d, w := range n.weights {
			if n.sizes[d+1] >= mirrorMinFanOut {
				n.mirror[d] = make([]float64, len(w))
			}
		}
	}
	for d, wc := range n.mirror {
		if wc == nil {
			continue
		}
		in, out := n.sizes[d], n.sizes[d+1]
		w := n.weights[d]
		for i := 0; i < out; i++ {
			for j, v := range w[i*in : i*in+in] {
				wc[j*out+i] = v
			}
		}
	}
	n.mirrorOK = true
}

// trainOneVec is trainOneScalar on the AVX2 kernels, bit-identical to it:
// every weight, bias, delta and the returned loss come from the same IEEE
// operations in the same order.
func (n *Network) trainOneVec(input, target []float64) float64 {
	if !n.mirrorOK {
		n.syncMirror()
	}
	copy(n.acts[0], input)
	for d, w := range n.weights {
		prev, cur := n.acts[d], n.acts[d+1]
		wc := n.mirror[d]
		if wc == nil {
			forwardLayer(w, n.biases[d], prev, cur)
			continue
		}
		fwdColsAVX2(&wc[0], &n.biases[d][0], &prev[0], &cur[0], len(prev), len(cur))
		// sigmoid(s) = 1/(1+math.Exp(-s)): scalar Exp, vector tail.
		for i, s := range cur {
			cur[i] = math.Exp(-s)
		}
		recipOnePlusAVX2(&cur[0], len(cur))
	}
	loss := n.outputDeltas(target)
	// Layers last-1 … 1 run the fused Eq. 7 + Eq. 8 pass; the input layer
	// (d = 0) only updates, as no error term propagates to the inputs.
	for d := len(n.weights) - 1; d >= 0; d-- {
		w, b := n.weights[d], n.biases[d]
		prev, delta := n.acts[d], n.deltas[d+1]
		step := n.tmp[:len(delta)]
		stepBiasAVX2(&step[0], &delta[0], &b[0], n.rate, len(delta))
		if d > 0 {
			bwdRowsAVX2(&w[0], &delta[0], &step[0], &prev[0], &n.deltas[d][0], len(prev), len(delta))
		} else {
			outerAddAVX2(&w[0], &step[0], &prev[0], len(delta), len(prev))
		}
		if wc := n.mirror[d]; wc != nil {
			outerAddAVX2(&wc[0], &prev[0], &step[0], len(prev), len(delta))
		}
	}
	return loss
}
