//go:build amd64

package dnn

import "repro/internal/cpufeat"

// useVecKernels selects the AVX2 training kernels (kern_amd64.s). It is
// set once from CPU detection; the pure-Go kernels remain the fallback and
// the oracle the vector path is tested against bit-for-bit.
var useVecKernels = cpufeat.X86.HasAVX2

// fwdColsAVX2 sets cur[i] = b[i] + Σ_j wc[j*out+i]·prev[j] (j ascending)
// for every i < out, reading the transposed mirror wc. Requires out ≥ 4.
//
//go:noescape
func fwdColsAVX2(wc, b, prev, cur *float64, in, out int)

// bwdRowsAVX2 is one hidden layer's fused Eq. 7 + Eq. 8 pass over the
// row-major weights w (out rows of in): it accumulates
// t_i = Σ_j delta[j]·w[j*in+i] from the pre-update weights, applies
// w[j*in+i] += s[j]·prev[i], and stores cur[i] = t_i·F′(prev[i]).
//
//go:noescape
func bwdRowsAVX2(w, delta, s, prev, cur *float64, in, out int)

// recipOnePlusAVX2 sets x[i] = 1/(1+x[i]) for i < n.
//
//go:noescape
func recipOnePlusAVX2(x *float64, n int)

// stepBiasAVX2 sets step[j] = rate·delta[j] and adds it to b[j], j < n.
//
//go:noescape
func stepBiasAVX2(step, delta, b *float64, rate float64, n int)

// outerAddAVX2 applies dst[r*cols+c] += a[r]·x[c] over a rows×cols matrix.
//
//go:noescape
func outerAddAVX2(dst, a, x *float64, rows, cols int)
