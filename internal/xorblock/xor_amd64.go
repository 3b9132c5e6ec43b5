package xorblock

// hasAVX2 is whether this CPU runs xorAVX2: it has AVX2 and the OS saves
// the YMM registers across context switches.
var hasAVX2 = detectAVX2()

func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 { // XMM and YMM state enabled
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}

// xorSources sets dst to the XOR of the first len(dst) bytes of every
// source in srcs, of which there is at least one, each at least len(dst)
// bytes long.
func xorSources(dst []byte, srcs [][]byte) {
	if hasAVX2 {
		xorAVX2(dst, srcs)
		return
	}
	xorPortable(dst, srcs)
}

// xorAVX2 is xorSources in one pass over dst with 32-byte AVX2 loads.
//
//go:noescape
func xorAVX2(dst []byte, srcs [][]byte)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
