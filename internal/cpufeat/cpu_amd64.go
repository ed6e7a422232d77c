package cpufeat

// cpuid executes CPUID with EAX = leaf and ECX = subleaf.
func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register XCR0.
func xgetbv() (eax, edx uint32)

var hasAVX2 = detectAVX2()

// detectAVX2 reports whether the CPU implements AVX2 and the operating
// system saves the YMM registers across context switches.
func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	// XCR0 bits 1 and 2: the OS saves the XMM and upper-YMM state.
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}

// HasAVX2 reports whether AVX2 kernels may run on this host.
func HasAVX2() bool { return hasAVX2 }
