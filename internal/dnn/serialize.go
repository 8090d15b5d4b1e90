package dnn

import (
	"encoding/json"
	"fmt"
	"io"
)

// Model persistence: a trained network can be saved after offline training
// on historical traces and loaded by the controller at deployment, so the
// prediction path never pays the training cost (the operational split the
// paper's overhead discussion assumes).

// networkJSON is the on-disk shape. It keeps the original nested
// row-per-neuron weight layout so files written by earlier versions load
// unchanged; the flat in-memory representation is packed/unpacked at this
// boundary only.
type networkJSON struct {
	Sizes   []int         `json:"sizes"`
	Rate    float64       `json:"rate"`
	Weights [][][]float64 `json:"weights"`
	Biases  [][]float64   `json:"biases"`
}

// Save writes the network's parameters as JSON.
func (n *Network) Save(w io.Writer) error {
	weights := make([][][]float64, len(n.weights))
	for d := range n.weights {
		in, out := n.sizes[d], n.sizes[d+1]
		rows := make([][]float64, out)
		for i := 0; i < out; i++ {
			rows[i] = n.weights[d][i*in : (i+1)*in]
		}
		weights[d] = rows
	}
	out := networkJSON{
		Sizes:   n.sizes,
		Rate:    n.rate,
		Weights: weights,
		Biases:  n.biases,
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// Load reads a network saved with Save, validating its shape.
func Load(r io.Reader) (*Network, error) {
	return LoadFrom(json.NewDecoder(r))
}

// LoadFrom decodes one network from an existing decoder, allowing several
// networks to be streamed from one file.
func LoadFrom(dec *json.Decoder) (*Network, error) {
	var in networkJSON
	if err := dec.Decode(&in); err != nil {
		return nil, fmt.Errorf("dnn: load: %w", err)
	}
	if len(in.Sizes) < 2 {
		return nil, fmt.Errorf("dnn: load: %d layers", len(in.Sizes))
	}
	for d, s := range in.Sizes {
		if s < 1 {
			return nil, fmt.Errorf("dnn: load: layer %d has size %d", d, s)
		}
	}
	if in.Rate <= 0 {
		return nil, fmt.Errorf("dnn: load: rate %v", in.Rate)
	}
	if len(in.Weights) != len(in.Sizes)-1 || len(in.Biases) != len(in.Sizes)-1 {
		return nil, fmt.Errorf("dnn: load: %d weight layers for %d sizes", len(in.Weights), len(in.Sizes))
	}
	for d := 0; d < len(in.Sizes)-1; d++ {
		if len(in.Weights[d]) != in.Sizes[d+1] || len(in.Biases[d]) != in.Sizes[d+1] {
			return nil, fmt.Errorf("dnn: load: layer %d has %d rows, want %d", d, len(in.Weights[d]), in.Sizes[d+1])
		}
		for i, row := range in.Weights[d] {
			if len(row) != in.Sizes[d] {
				return nil, fmt.Errorf("dnn: load: layer %d row %d has %d cols, want %d", d, i, len(row), in.Sizes[d])
			}
		}
	}
	n := newShell(in.Sizes, in.Rate)
	for d := range in.Weights {
		size := in.Sizes[d]
		for i, row := range in.Weights[d] {
			copy(n.weights[d][i*size:(i+1)*size], row)
		}
		copy(n.biases[d], in.Biases[d])
	}
	n.invalidateMirror()
	return n, nil
}
