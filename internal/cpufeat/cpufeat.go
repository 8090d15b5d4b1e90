// Package cpufeat detects the x86 vector extensions the repository's
// assembly kernels use. It holds the repository's only CPUID/XGETBV code:
// the scheduler's AVX-512 feasibility scan and the DNN's AVX2 training
// kernel both gate on the flags below, and every kernel has a pure-Go
// fallback that produces bit-identical results, so a flag only ever
// selects speed, never an answer.
package cpufeat

// X86 reports the detected features. Every flag is false on non-amd64
// builds and on CPUs or kernels that lack the feature.
var X86 = detect()

// Features lists the extensions a kernel may ask for. A flag is set only
// when the CPU implements the instructions AND the OS saves the register
// state they use (XCR0), so a kernel gated on it can never fault.
type Features struct {
	// HasAVX2: AVX and AVX2 with OS-enabled YMM state.
	HasAVX2 bool
	// HasAVX512: AVX-512 F (foundation, VPCOMPRESSD), DQ (byte mask ops)
	// and VL (256-bit forms) with OS-enabled opmask and ZMM state.
	HasAVX512 bool
}
