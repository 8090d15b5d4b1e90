package dnn

import (
	"errors"
	"fmt"
)

// Greedy layer-wise autoencoder pretraining.
//
// The paper's training description ("it first computes the hidden
// activation[,] the reconstructed output from the hidden activation[,]
// computes the error gradient, and back-propagates [it] to update weight";
// "for testing, the algorithm autoencodes the input and generates the
// output") matches the classic stacked-autoencoder recipe: each hidden
// layer is first trained to reconstruct its input through a temporary
// decoder, then the learned encoder weights seed the deep network before
// supervised fine-tuning.

// Autoencoder trains a single sigmoid encoder/decoder pair.
type Autoencoder struct {
	net *Network // topology {in, hidden, in}
}

// NewAutoencoder builds an autoencoder with the given visible and hidden
// sizes.
func NewAutoencoder(visible, hidden int, rate float64, seed int64) (*Autoencoder, error) {
	net, err := New(Config{LayerSizes: []int{visible, hidden, visible}, LearningRate: rate, Seed: seed})
	if err != nil {
		return nil, err
	}
	return &Autoencoder{net: net}, nil
}

// TrainEpochs runs the reconstruction objective for the given epochs over
// the inputs and returns the final mean reconstruction loss.
func (a *Autoencoder) TrainEpochs(inputs [][]float64, epochs int) (float64, error) {
	if len(inputs) == 0 {
		return 0, errors.New("dnn: no autoencoder inputs")
	}
	if epochs <= 0 {
		epochs = 20
	}
	var last float64
	for e := 0; e < epochs; e++ {
		var total float64
		for _, in := range inputs {
			loss, err := a.net.TrainSample(in, in)
			if err != nil {
				return 0, err
			}
			total += loss
		}
		last = total / float64(len(inputs))
	}
	return last, nil
}

// Encode maps an input to its hidden representation.
func (a *Autoencoder) Encode(input []float64) ([]float64, error) {
	if _, err := a.net.Forward(input); err != nil {
		return nil, err
	}
	return append([]float64(nil), a.net.acts[1]...), nil
}

// Reconstruct runs the full encode+decode pass.
func (a *Autoencoder) Reconstruct(input []float64) ([]float64, error) {
	out, err := a.net.Forward(input)
	if err != nil {
		return nil, err
	}
	return append([]float64(nil), out...), nil
}

// encoderWeights exposes the trained encoder parameters (flat row-major,
// stride = visible size — the same layout Network uses).
func (a *Autoencoder) encoderWeights() ([]float64, []float64) {
	return a.net.weights[0], a.net.biases[0]
}

// Pretrain greedily pretrains every hidden layer of the network as an
// autoencoder over the training inputs, in place. The final
// (hidden→output) layer keeps its random initialization; supervised Train
// fine-tunes everything afterwards.
func (n *Network) Pretrain(inputs [][]float64, epochsPerLayer int, seed int64) error {
	if len(inputs) == 0 {
		return errors.New("dnn: no pretraining inputs")
	}
	current := inputs
	for d := 0; d < len(n.weights)-1; d++ {
		visible, hidden := n.sizes[d], n.sizes[d+1]
		ae, err := NewAutoencoder(visible, hidden, n.rate, seed+int64(d))
		if err != nil {
			return fmt.Errorf("dnn: pretrain layer %d: %w", d, err)
		}
		if _, err := ae.TrainEpochs(current, epochsPerLayer); err != nil {
			return fmt.Errorf("dnn: pretrain layer %d: %w", d, err)
		}
		w, b := ae.encoderWeights()
		copy(n.weights[d], w)
		copy(n.biases[d], b)
		n.invalidateMirror()
		// Feed the encoded representations to the next layer.
		next := make([][]float64, len(current))
		for i, in := range current {
			enc, err := ae.Encode(in)
			if err != nil {
				return err
			}
			next[i] = enc
		}
		current = next
	}
	return nil
}
