//go:build amd64

#include "textflag.h"

// iota32 and eights32 seed/advance the running dword index vector.
DATA iota32<>+0(SB)/4, $0
DATA iota32<>+4(SB)/4, $1
DATA iota32<>+8(SB)/4, $2
DATA iota32<>+12(SB)/4, $3
DATA iota32<>+16(SB)/4, $4
DATA iota32<>+20(SB)/4, $5
DATA iota32<>+24(SB)/4, $6
DATA iota32<>+28(SB)/4, $7
GLOBL iota32<>(SB), RODATA|NOPTR, $32

DATA eights32<>+0(SB)/4, $8
DATA eights32<>+4(SB)/4, $8
DATA eights32<>+8(SB)/4, $8
DATA eights32<>+12(SB)/4, $8
DATA eights32<>+16(SB)/4, $8
DATA eights32<>+20(SB)/4, $8
DATA eights32<>+24(SB)/4, $8
DATA eights32<>+28(SB)/4, $8
GLOBL eights32<>(SB), RODATA|NOPTR, $32

// func fitScanAVX512(q0, q1, q2 *float64, blocks int, d0, d1, d2 float64, out *int32, base int32) int32
//
// Per 8-lane block: K1..K3 = (d_k > q_k[i]) via VCMPPD GT_OQ — the exact
// ordered greater-than Go's > compiles to — OR'd into one fail mask, then
// complemented, and the surviving lane indices compress-stored ascending.
// base offsets the emitted indices so the kernel can scan with the output
// indices shifted (callers scanning a packed subset translate positions
// themselves and pass base 0).
TEXT ·fitScanAVX512(SB), NOSPLIT, $0-76
	MOVQ q0+0(FP), R8
	MOVQ q1+8(FP), R9
	MOVQ q2+16(FP), R10
	MOVQ blocks+24(FP), CX
	VBROADCASTSD d0+32(FP), Z1
	VBROADCASTSD d1+40(FP), Z2
	VBROADCASTSD d2+48(FP), Z3
	MOVQ out+56(FP), DI
	MOVQ DI, BX
	VMOVDQU iota32<>(SB), Y7
	VMOVDQU eights32<>(SB), Y8
	MOVL base+64(FP), AX
	VPBROADCASTD AX, Y9
	VPADDD Y9, Y7, Y7

loop:
	VMOVUPD (R8), Z4
	VMOVUPD (R9), Z5
	VMOVUPD (R10), Z6
	VCMPPD  $0x1e, Z4, Z1, K1
	VCMPPD  $0x1e, Z5, Z2, K2
	VCMPPD  $0x1e, Z6, Z3, K3
	KORB    K2, K1, K1
	KORB    K3, K1, K1
	KNOTB   K1, K1
	VPCOMPRESSD Y7, K1, (DI)
	KMOVB   K1, AX
	POPCNTL AX, AX
	LEAQ    (DI)(AX*4), DI
	VPADDD  Y8, Y7, Y7
	ADDQ    $64, R8
	ADDQ    $64, R9
	ADDQ    $64, R10
	DECQ    CX
	JNZ     loop

	SUBQ BX, DI
	SHRQ $2, DI
	MOVL DI, ret+72(FP)
	VZEROUPPER
	RET
