// Package dlrm is a functional implementation of Facebook's deep-learning
// recommendation model (Naumov et al., the paper's Fig. 1): a bottom MLP
// over dense features, an embedding layer over sparse categorical features,
// pairwise dot-product feature interaction, and a top MLP producing the
// click-through-rate. The embedding layer is the memory-bound part the NMP
// architectures accelerate; this package supplies the full model around it
// for the end-to-end inference example.
package dlrm

import (
	"fmt"
	"math"
	"math/rand"

	"recross/internal/embedding"
	"recross/internal/trace"
)

// MLP is a fully connected network with ReLU activations on hidden layers.
type MLP struct {
	weights [][]float32 // [layer][out*in]
	biases  [][]float32
	sizes   []int
}

// NewMLP builds an MLP with the given layer sizes (input first), weights
// initialized deterministically from seed with Xavier-style scaling.
func NewMLP(sizes []int, seed int64) (*MLP, error) {
	if len(sizes) < 2 {
		return nil, fmt.Errorf("dlrm: MLP needs at least input and output sizes")
	}
	for _, s := range sizes {
		if s <= 0 {
			return nil, fmt.Errorf("dlrm: non-positive layer size %d", s)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	m := &MLP{sizes: sizes}
	for l := 0; l+1 < len(sizes); l++ {
		in, out := sizes[l], sizes[l+1]
		scale := float32(math.Sqrt(2 / float64(in)))
		w := make([]float32, in*out)
		for i := range w {
			w[i] = (rng.Float32()*2 - 1) * scale
		}
		b := make([]float32, out)
		m.weights = append(m.weights, w)
		m.biases = append(m.biases, b)
	}
	return m, nil
}

// InputSize returns the expected input width.
func (m *MLP) InputSize() int { return m.sizes[0] }

// OutputSize returns the output width.
func (m *MLP) OutputSize() int { return m.sizes[len(m.sizes)-1] }

// Forward runs the network. ReLU is applied to every layer except the last.
func (m *MLP) Forward(x []float32) ([]float32, error) {
	if len(x) != m.sizes[0] {
		return nil, fmt.Errorf("dlrm: input width %d, want %d", len(x), m.sizes[0])
	}
	cur := x
	for l := range m.weights {
		in, out := m.sizes[l], m.sizes[l+1]
		next := make([]float32, out)
		w := m.weights[l]
		for o := 0; o < out; o++ {
			acc := m.biases[l][o]
			row := w[o*in : (o+1)*in]
			for i, v := range cur {
				acc += float32(row[i] * v)
			}
			if l+1 < len(m.weights) && acc < 0 {
				acc = 0 // ReLU on hidden layers
			}
			next[o] = acc
		}
		cur = next
	}
	return cur, nil
}

// Model is the full DLRM.
type Model struct {
	Spec      trace.ModelSpec
	Bottom    *MLP
	Top       *MLP
	Embedding *embedding.Layer
	vecLen    int
}

// New builds a DLRM over the spec's embedding layer: a bottom MLP from
// denseFeatures to the embedding dimension, and a top MLP over the
// interaction features.
func New(spec trace.ModelSpec, denseFeatures int, seed int64) (*Model, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if denseFeatures <= 0 {
		return nil, fmt.Errorf("dlrm: need at least one dense feature")
	}
	vecLen := spec.Tables[0].VecLen
	for _, t := range spec.Tables {
		if t.VecLen != vecLen {
			return nil, fmt.Errorf("dlrm: mixed embedding dimensions unsupported")
		}
	}
	emb, err := embedding.NewLayer(spec)
	if err != nil {
		return nil, err
	}
	bottom, err := NewMLP([]int{denseFeatures, 2 * vecLen, vecLen}, seed)
	if err != nil {
		return nil, err
	}
	// Interaction features: pairwise dots among (bottom output + one
	// pooled vector per table), concatenated with the bottom output.
	n := len(spec.Tables) + 1
	interactions := n * (n - 1) / 2
	top, err := NewMLP([]int{vecLen + interactions, 2 * vecLen, 1}, seed+1)
	if err != nil {
		return nil, err
	}
	return &Model{
		Spec: spec, Bottom: bottom, Top: top, Embedding: emb,
		vecLen: vecLen,
	}, nil
}

// Predict produces the CTR for one sample: dense features plus the sparse
// embedding work. The sample must access every table exactly once.
func (m *Model) Predict(dense []float32, s trace.Sample) (float64, error) {
	pooled, err := m.Embedding.ReduceSample(s)
	if err != nil {
		return 0, err
	}
	return m.PredictPooled(dense, pooled, s)
}

// PredictPooled produces the CTR from already-reduced embedding vectors —
// the path used when an NMP system performed the reduction. The pooled
// vectors must be ordered as the sample's ops.
func (m *Model) PredictPooled(dense []float32, pooled [][]float32, s trace.Sample) (float64, error) {
	if len(pooled) != len(s) {
		return 0, fmt.Errorf("dlrm: %d pooled vectors for %d ops", len(pooled), len(s))
	}
	if len(s) != len(m.Spec.Tables) {
		return 0, fmt.Errorf("dlrm: sample accesses %d tables, want %d", len(s), len(m.Spec.Tables))
	}
	bot, err := m.Bottom.Forward(dense)
	if err != nil {
		return 0, err
	}
	// Feature interaction: pairwise dot products among [bot, pooled...].
	vecs := append([][]float32{bot}, pooled...)
	var feats []float32
	feats = append(feats, bot...)
	for i := 0; i < len(vecs); i++ {
		for j := i + 1; j < len(vecs); j++ {
			if len(vecs[i]) != m.vecLen || len(vecs[j]) != m.vecLen {
				return 0, fmt.Errorf("dlrm: interaction vector width mismatch")
			}
			var dot float32
			for k := 0; k < m.vecLen; k++ {
				dot += float32(vecs[i][k] * vecs[j][k])
			}
			feats = append(feats, dot)
		}
	}
	out, err := m.Top.Forward(feats)
	if err != nil {
		return 0, err
	}
	return sigmoid(float64(out[0])), nil
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }
