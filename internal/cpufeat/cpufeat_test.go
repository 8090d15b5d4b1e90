package cpufeat

import (
	"runtime"
	"testing"
)

// TestFeaturesConsistent checks the implications every real CPU obeys:
// no flag off amd64, and the AVX-512 subset the kernels need implies AVX2.
func TestFeaturesConsistent(t *testing.T) {
	t.Logf("%s: %+v", runtime.GOARCH, X86)
	if runtime.GOARCH != "amd64" && X86 != (Features{}) {
		t.Fatalf("features %+v reported on %s", X86, runtime.GOARCH)
	}
	if X86.HasAVX512 && !X86.HasAVX2 {
		t.Fatalf("AVX-512 without AVX2: %+v", X86)
	}
	if detect() != X86 {
		t.Fatal("detection is not stable across calls")
	}
}
