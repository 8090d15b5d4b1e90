//go:build amd64

#include "textflag.h"

// AVX2 training kernels (kern_amd64.go). Every lane performs exactly the
// scalar IEEE operation sequence of the pure-Go path: a product is one
// VMULPD and an accumulation one VADDPD (never a fused multiply-add), and
// each accumulator adds its terms in the same ascending order. The results
// are therefore bit-identical to the scalar kernels.

DATA onesPD<>+0(SB)/8, $0x3ff0000000000000
DATA onesPD<>+8(SB)/8, $0x3ff0000000000000
DATA onesPD<>+16(SB)/8, $0x3ff0000000000000
DATA onesPD<>+24(SB)/8, $0x3ff0000000000000
GLOBL onesPD<>(SB), RODATA|NOPTR, $32

// tailMask<>+32*k enables the low k lanes, for the last in%4 columns.
DATA tailMask<>+0(SB)/8, $0
DATA tailMask<>+8(SB)/8, $0
DATA tailMask<>+16(SB)/8, $0
DATA tailMask<>+24(SB)/8, $0
DATA tailMask<>+32(SB)/8, $-1
DATA tailMask<>+40(SB)/8, $0
DATA tailMask<>+48(SB)/8, $0
DATA tailMask<>+56(SB)/8, $0
DATA tailMask<>+64(SB)/8, $-1
DATA tailMask<>+72(SB)/8, $-1
DATA tailMask<>+80(SB)/8, $0
DATA tailMask<>+88(SB)/8, $0
DATA tailMask<>+96(SB)/8, $-1
DATA tailMask<>+104(SB)/8, $-1
DATA tailMask<>+112(SB)/8, $-1
DATA tailMask<>+120(SB)/8, $0
GLOBL tailMask<>(SB), RODATA|NOPTR, $128

// func fwdColsAVX2(wc, b, prev, cur *float64, in, out int)
//
// cur[i] = b[i] + Σ_j wc[j*out+i]·prev[j], j ascending, for i < out
// (out ≥ 4). Blocks of 16 outputs keep four accumulator chains in flight;
// then groups of 4; a last partial group is recomputed at out-4, which
// rewrites the overlapping outputs with the identical values.
TEXT ·fwdColsAVX2(SB), NOSPLIT, $0-48
	MOVQ wc+0(FP), R8
	MOVQ b+8(FP), R9
	MOVQ prev+16(FP), R10
	MOVQ cur+24(FP), R11
	MOVQ in+32(FP), CX
	MOVQ out+40(FP), BX
	SHLQ $3, BX           // BX = out in bytes = mirror row stride
	XORQ SI, SI           // SI = byte offset of the current outputs

fwd16:
	LEAQ 128(SI), AX
	CMPQ AX, BX
	JGT  fwd4
	VMOVUPD 0(R9)(SI*1), Y0
	VMOVUPD 32(R9)(SI*1), Y1
	VMOVUPD 64(R9)(SI*1), Y2
	VMOVUPD 96(R9)(SI*1), Y3
	LEAQ (R8)(SI*1), DI
	MOVQ R10, AX
	MOVQ CX, DX

fwd16j:
	VBROADCASTSD (AX), Y4
	VMULPD 0(DI), Y4, Y5
	VADDPD Y5, Y0, Y0
	VMULPD 32(DI), Y4, Y6
	VADDPD Y6, Y1, Y1
	VMULPD 64(DI), Y4, Y7
	VADDPD Y7, Y2, Y2
	VMULPD 96(DI), Y4, Y8
	VADDPD Y8, Y3, Y3
	ADDQ $8, AX
	ADDQ BX, DI
	DECQ DX
	JNZ  fwd16j
	VMOVUPD Y0, 0(R11)(SI*1)
	VMOVUPD Y1, 32(R11)(SI*1)
	VMOVUPD Y2, 64(R11)(SI*1)
	VMOVUPD Y3, 96(R11)(SI*1)
	ADDQ $128, SI
	JMP  fwd16

fwd4:
	CMPQ SI, BX
	JGE  fwddone
	LEAQ 32(SI), AX
	CMPQ AX, BX
	JLE  fwd4go
	MOVQ BX, SI
	SUBQ $32, SI          // last partial group: recompute at out-4

fwd4go:
	VMOVUPD (R9)(SI*1), Y0
	LEAQ (R8)(SI*1), DI
	MOVQ R10, AX
	MOVQ CX, DX

fwd4j:
	VBROADCASTSD (AX), Y4
	VMULPD (DI), Y4, Y5
	VADDPD Y5, Y0, Y0
	ADDQ $8, AX
	ADDQ BX, DI
	DECQ DX
	JNZ  fwd4j
	VMOVUPD Y0, (R11)(SI*1)
	ADDQ $32, SI
	JMP  fwd4

fwddone:
	VZEROUPPER
	RET

// func bwdRowsAVX2(w, delta, s, prev, cur *float64, in, out int)
//
// The fused Eq. 7 + Eq. 8 pass of one hidden layer, vectorized over the
// fan-in index i (row-major w, row stride in):
//
//	t_i = Σ_j delta[j]·w[j*in+i]  (j ascending, from 0, pre-update w)
//	w[j*in+i] += s[j]·prev[i]
//	cur[i] = t_i·(prev[i]·(1-prev[i]))
//
// Blocks of 16 fan-in columns hold four t chains and four activation
// vectors in registers; then groups of 4; the last in%4 columns run under
// a lane mask, so no element outside the row is read or written.
TEXT ·bwdRowsAVX2(SB), NOSPLIT, $0-56
	MOVQ w+0(FP), R8
	MOVQ delta+8(FP), R9
	MOVQ s+16(FP), R10
	MOVQ prev+24(FP), R11
	MOVQ cur+32(FP), R12
	MOVQ in+40(FP), BX
	SHLQ $3, BX           // BX = in in bytes = row stride
	MOVQ out+48(FP), CX
	VMOVUPD onesPD<>(SB), Y15
	XORQ SI, SI           // SI = byte offset of the current columns

bwd16:
	LEAQ 128(SI), AX
	CMPQ AX, BX
	JGT  bwd4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VMOVUPD 0(R11)(SI*1), Y4
	VMOVUPD 32(R11)(SI*1), Y5
	VMOVUPD 64(R11)(SI*1), Y6
	VMOVUPD 96(R11)(SI*1), Y7
	LEAQ (R8)(SI*1), DI
	MOVQ R9, AX
	MOVQ R10, R13
	MOVQ CX, DX

bwd16j:
	VBROADCASTSD (AX), Y8
	VBROADCASTSD (R13), Y9
	VMOVUPD 0(DI), Y10
	VMOVUPD 32(DI), Y11
	VMOVUPD 64(DI), Y12
	VMOVUPD 96(DI), Y13
	VMULPD Y10, Y8, Y14
	VADDPD Y14, Y0, Y0
	VMULPD Y4, Y9, Y14
	VADDPD Y14, Y10, Y10
	VMULPD Y11, Y8, Y14
	VADDPD Y14, Y1, Y1
	VMULPD Y5, Y9, Y14
	VADDPD Y14, Y11, Y11
	VMULPD Y12, Y8, Y14
	VADDPD Y14, Y2, Y2
	VMULPD Y6, Y9, Y14
	VADDPD Y14, Y12, Y12
	VMULPD Y13, Y8, Y14
	VADDPD Y14, Y3, Y3
	VMULPD Y7, Y9, Y14
	VADDPD Y14, Y13, Y13
	VMOVUPD Y10, 0(DI)
	VMOVUPD Y11, 32(DI)
	VMOVUPD Y12, 64(DI)
	VMOVUPD Y13, 96(DI)
	ADDQ $8, AX
	ADDQ $8, R13
	ADDQ BX, DI
	DECQ DX
	JNZ  bwd16j
	VSUBPD Y4, Y15, Y10
	VMULPD Y10, Y4, Y10
	VMULPD Y10, Y0, Y0
	VSUBPD Y5, Y15, Y11
	VMULPD Y11, Y5, Y11
	VMULPD Y11, Y1, Y1
	VSUBPD Y6, Y15, Y12
	VMULPD Y12, Y6, Y12
	VMULPD Y12, Y2, Y2
	VSUBPD Y7, Y15, Y13
	VMULPD Y13, Y7, Y13
	VMULPD Y13, Y3, Y3
	VMOVUPD Y0, 0(R12)(SI*1)
	VMOVUPD Y1, 32(R12)(SI*1)
	VMOVUPD Y2, 64(R12)(SI*1)
	VMOVUPD Y3, 96(R12)(SI*1)
	ADDQ $128, SI
	JMP  bwd16

bwd4:
	LEAQ 32(SI), AX
	CMPQ AX, BX
	JGT  bwdtail
	VXORPD Y0, Y0, Y0
	VMOVUPD (R11)(SI*1), Y4
	LEAQ (R8)(SI*1), DI
	MOVQ R9, AX
	MOVQ R10, R13
	MOVQ CX, DX

bwd4j:
	VBROADCASTSD (AX), Y8
	VBROADCASTSD (R13), Y9
	VMOVUPD (DI), Y10
	VMULPD Y10, Y8, Y14
	VADDPD Y14, Y0, Y0
	VMULPD Y4, Y9, Y14
	VADDPD Y14, Y10, Y10
	VMOVUPD Y10, (DI)
	ADDQ $8, AX
	ADDQ $8, R13
	ADDQ BX, DI
	DECQ DX
	JNZ  bwd4j
	VSUBPD Y4, Y15, Y10
	VMULPD Y10, Y4, Y10
	VMULPD Y10, Y0, Y0
	VMOVUPD Y0, (R12)(SI*1)
	ADDQ $32, SI
	JMP  bwd4

bwdtail:
	CMPQ SI, BX
	JGE  bwddone
	MOVQ BX, AX
	SUBQ SI, AX           // remaining bytes: 8, 16 or 24
	SHLQ $2, AX           // mask row offset: 32 per lane
	LEAQ tailMask<>(SB), DX
	VMOVUPD (DX)(AX*1), Y3
	VXORPD Y0, Y0, Y0
	LEAQ (R11)(SI*1), DI
	VMASKMOVPD (DI), Y3, Y4
	LEAQ (R8)(SI*1), DI
	MOVQ R9, AX
	MOVQ R10, R13
	MOVQ CX, DX

bwdtailj:
	VBROADCASTSD (AX), Y8
	VBROADCASTSD (R13), Y9
	VMASKMOVPD (DI), Y3, Y10
	VMULPD Y10, Y8, Y14
	VADDPD Y14, Y0, Y0
	VMULPD Y4, Y9, Y14
	VADDPD Y14, Y10, Y10
	VMASKMOVPD Y10, Y3, (DI)
	ADDQ $8, AX
	ADDQ $8, R13
	ADDQ BX, DI
	DECQ DX
	JNZ  bwdtailj
	VSUBPD Y4, Y15, Y10
	VMULPD Y10, Y4, Y10
	VMULPD Y10, Y0, Y0
	LEAQ (R12)(SI*1), DI
	VMASKMOVPD Y0, Y3, (DI)

bwddone:
	VZEROUPPER
	RET

// func outerAddAVX2(dst, a, x *float64, rows, cols int)
//
// dst[r*cols+c] += a[r]·x[c] for every r < rows, c < cols: the Eq. 8
// rank-one update, applied to a row-major weight matrix (a = rate·δ,
// x = activations) or to its transposed mirror (a = activations,
// x = rate·δ; the product commutes exactly). The last cols%4 elements of
// each row take scalar VMULSD/VADDSD: a masked store there would span the
// next row's head, and the next row's loads would stall on it.
TEXT ·outerAddAVX2(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), R8
	MOVQ x+16(FP), R9
	MOVQ rows+24(FP), CX
	MOVQ cols+32(FP), BX
	SHLQ $3, BX              // BX = cols in bytes = row stride
	MOVQ BX, R10
	ANDQ $-32, R10           // R10 = bytes covered by whole groups of 4
	MOVQ BX, R11
	ANDQ $-128, R11          // R11 = bytes covered by whole blocks of 16
	TESTQ CX, CX
	JEQ  outerdone

outerrow:
	VBROADCASTSD (R8), Y8
	XORQ SI, SI

outer16:
	CMPQ SI, R11
	JGE  outer8
	VMULPD 0(R9)(SI*1), Y8, Y0
	VMULPD 32(R9)(SI*1), Y8, Y1
	VMULPD 64(R9)(SI*1), Y8, Y2
	VMULPD 96(R9)(SI*1), Y8, Y3
	VADDPD 0(DI)(SI*1), Y0, Y0
	VADDPD 32(DI)(SI*1), Y1, Y1
	VADDPD 64(DI)(SI*1), Y2, Y2
	VADDPD 96(DI)(SI*1), Y3, Y3
	VMOVUPD Y0, 0(DI)(SI*1)
	VMOVUPD Y1, 32(DI)(SI*1)
	VMOVUPD Y2, 64(DI)(SI*1)
	VMOVUPD Y3, 96(DI)(SI*1)
	ADDQ $128, SI
	JMP  outer16

outer8:
	LEAQ 64(SI), AX
	CMPQ AX, R10
	JGT  outer4
	VMULPD 0(R9)(SI*1), Y8, Y0
	VMULPD 32(R9)(SI*1), Y8, Y1
	VADDPD 0(DI)(SI*1), Y0, Y0
	VADDPD 32(DI)(SI*1), Y1, Y1
	VMOVUPD Y0, 0(DI)(SI*1)
	VMOVUPD Y1, 32(DI)(SI*1)
	MOVQ AX, SI

outer4:
	CMPQ SI, R10
	JGE  outertail
	VMULPD (R9)(SI*1), Y8, Y0
	VADDPD (DI)(SI*1), Y0, Y0
	VMOVUPD Y0, (DI)(SI*1)
	ADDQ $32, SI
	JMP  outer4

outertail:
	CMPQ SI, BX
	JGE  outernext
	VMULSD (R9)(SI*1), X8, X0
	VADDSD (DI)(SI*1), X0, X0
	VMOVSD X0, (DI)(SI*1)
	ADDQ $8, SI
	JMP  outertail

outernext:
	ADDQ $8, R8
	ADDQ BX, DI
	DECQ CX
	JNZ  outerrow

outerdone:
	VZEROUPPER
	RET

// func recipOnePlusAVX2(x *float64, n int)
//
// x[i] = 1/(1+x[i]) for i < n: the tail of the sigmoid 1/(1+e^(-s)) once
// x holds math.Exp(-s). Groups of 4 use VADDPD/VDIVPD, the last n%4
// elements the scalar VADDSD/VDIVSD; both round exactly as Go's + and /.
TEXT ·recipOnePlusAVX2(SB), NOSPLIT, $0-16
	MOVQ x+0(FP), DI
	MOVQ n+8(FP), CX
	VMOVUPD onesPD<>(SB), Y15

recip4:
	CMPQ CX, $4
	JLT  reciptail
	VADDPD (DI), Y15, Y0
	VDIVPD Y0, Y15, Y0
	VMOVUPD Y0, (DI)
	ADDQ $32, DI
	SUBQ $4, CX
	JMP  recip4

reciptail:
	TESTQ CX, CX
	JEQ  recipdone
	VADDSD (DI), X15, X0
	VDIVSD X0, X15, X0
	VMOVSD X0, (DI)
	ADDQ $8, DI
	DECQ CX
	JMP  reciptail

recipdone:
	VZEROUPPER
	RET

// func stepBiasAVX2(step, delta, b *float64, rate float64, n int)
//
// step[j] = rate·delta[j] and b[j] += step[j] for j < n: the per-neuron
// Eq. 8 step and the bias update it drives. Groups of 4, then scalars.
TEXT ·stepBiasAVX2(SB), NOSPLIT, $0-40
	MOVQ step+0(FP), DI
	MOVQ delta+8(FP), SI
	MOVQ b+16(FP), DX
	VBROADCASTSD rate+24(FP), Y8
	MOVQ n+32(FP), CX

step4:
	CMPQ CX, $4
	JLT  steptail
	VMULPD (SI), Y8, Y0
	VMOVUPD Y0, (DI)
	VADDPD (DX), Y0, Y1
	VMOVUPD Y1, (DX)
	ADDQ $32, SI
	ADDQ $32, DI
	ADDQ $32, DX
	SUBQ $4, CX
	JMP  step4

steptail:
	TESTQ CX, CX
	JEQ  stepdone
	VMULSD (SI), X8, X0
	VMOVSD X0, (DI)
	VADDSD (DX), X0, X1
	VMOVSD X1, (DX)
	ADDQ $8, SI
	ADDQ $8, DI
	ADDQ $8, DX
	DECQ CX
	JMP  steptail

stepdone:
	VZEROUPPER
	RET
