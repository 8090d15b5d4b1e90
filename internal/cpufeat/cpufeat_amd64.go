//go:build amd64

package cpufeat

func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() (eax, edx uint32)

func detect() Features {
	var f Features
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return f
	}
	_, _, c1, _ := cpuid(1, 0)
	const (
		osxsave = 1 << 27
		avx     = 1 << 28
	)
	if c1&osxsave == 0 {
		return f
	}
	xlo, _ := xgetbv0()
	_, b7, _, _ := cpuid(7, 0)

	// XCR0: SSE and AVX (YMM upper halves) state.
	const xcr0YMM = 1<<1 | 1<<2
	const avx2 = 1 << 5
	f.HasAVX2 = c1&avx != 0 && xlo&xcr0YMM == xcr0YMM && b7&avx2 != 0

	// XCR0: additionally opmask, ZMM_Hi256 and Hi16_ZMM state.
	const xcr0ZMM = xcr0YMM | 1<<5 | 1<<6 | 1<<7
	const (
		avx512f  = 1 << 16
		avx512dq = 1 << 17
		avx512vl = 1 << 31
	)
	const avx512 = avx512f | avx512dq | avx512vl
	f.HasAVX512 = xlo&xcr0ZMM == xcr0ZMM && b7&avx512 == avx512
	return f
}
