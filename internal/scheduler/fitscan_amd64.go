//go:build amd64

package scheduler

import "repro/internal/cpufeat"

// fitScanAVX512 is the vectorized feasibility scan (fitscan_amd64.s): for
// each of blocks*8 pool entries it evaluates the exact fail condition
// d0 > q0[i] || d1 > q1[i] || d2 > q2[i] with VCMPPD (ordered greater-than,
// the IEEE comparison Go's > performs) and compress-stores the surviving
// indices, offset by base and ascending, into out. Returns how many
// indices it stored.
//
//go:noescape
func fitScanAVX512(q0, q1, q2 *float64, blocks int, d0, d1, d2 float64, out *int32, base int32) int32

// hasFitScanAsm gates the assembly kernel on AVX-512 F (foundation +
// VPCOMPRESSD), DQ (byte mask ops) and VL (256-bit index vectors) with
// OS-enabled opmask and ZMM state.
var hasFitScanAsm = cpufeat.X86.HasAVX512
