//go:build !amd64

package dnn

// Non-amd64 builds always train with the pure-Go kernels.
var useVecKernels = false

func fwdColsAVX2(wc, b, prev, cur *float64, in, out int) { panic("dnn: no vector kernels") }

func bwdRowsAVX2(w, delta, s, prev, cur *float64, in, out int) { panic("dnn: no vector kernels") }

func recipOnePlusAVX2(x *float64, n int) { panic("dnn: no vector kernels") }

func stepBiasAVX2(step, delta, b *float64, rate float64, n int) { panic("dnn: no vector kernels") }

func outerAddAVX2(dst, a, x *float64, rows, cols int) { panic("dnn: no vector kernels") }
