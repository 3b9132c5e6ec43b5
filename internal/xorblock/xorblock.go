// Package xorblock is the XOR engine of the data plane. Every byte the
// system delivers flows through XOR-of-blocks loops — fountain encoding
// and peeling (§5.4.1), recoded-payload construction and propagation
// (§5.4.2) — so this one primitive bounds symbol throughput.
//
// XorGather is the fused kernel: dst becomes the XOR of a symbol's whole
// list of blocks in one pass over dst, so a degree-d symbol reads each
// source once and writes dst once instead of d−1 times. On amd64 CPUs
// with AVX2 (checked once, at start-up, with cpuid and xgetbv) it runs
// this package's assembly: per 128 bytes of dst, the first source is
// loaded into four 32-byte registers, every other source is XORed in,
// and the result is stored once; the tail is finished in the same pass,
// 32, then 8, then 1 byte at a time. Every other CPU and architecture
// runs the portable path: a chain of crypto/subtle.XORBytes calls, which
// is assembly-backed on amd64 and arm64 and portable Go elsewhere. The
// two paths produce the same bytes.
//
// XorGather's sources must each be at least as long as dst, or it
// panics; only the first len(dst) bytes of each are read. dst may be
// exactly its first source and must not otherwise overlap any source.
//
// XorInto keeps common-prefix semantics: only min(len(dst), len(src))
// bytes are XORed and that length returned. Callers on equal-length hot
// paths (all of fountain and recode — block sizes are validated at
// construction) pay nothing for the guarantee; callers with ragged
// buffers get a defined, tested behavior instead of a silent
// out-of-bounds assumption.
package xorblock

import "crypto/subtle"

// XorInto XORs src into dst in place over the common prefix
// min(len(dst), len(src)) and returns the number of bytes processed.
// dst and src may be the same slice; partially overlapping slices are
// not supported.
func XorInto(dst, src []byte) int {
	n := min(len(dst), len(src))
	return subtle.XORBytes(dst[:n], dst[:n], src[:n])
}

// group is how many sources one kernel call takes. A longer list is
// folded in groups, each after the first led by dst itself, so the
// source headers live on the stack and a call allocates nothing.
const group = 16

// XorGather sets dst to first XOR table[i] for every i in idx other
// than skip, in one pass over dst per 15 listed blocks; a negative skip
// names no block. first and every listed block must be at least
// len(dst) bytes long, or XorGather panics. dst may be exactly first
// and must not otherwise overlap first or any listed block.
func XorGather[I int | int32](dst, first []byte, table [][]byte, idx []I, skip I) {
	n := len(dst)
	if len(first) < n {
		panic("xorblock: first source shorter than dst")
	}
	var srcs [group][]byte
	srcs[0] = first
	k := 1
	for _, i := range idx {
		if i == skip {
			continue
		}
		src := table[i]
		if len(src) < n {
			panic("xorblock: source shorter than dst")
		}
		if k == group {
			xorSources(dst, srcs[:k])
			srcs[0] = dst
			k = 1
		}
		srcs[k] = src
		k++
	}
	xorSources(dst, srcs[:k])
}

// xorPortable sets dst to the XOR of the first len(dst) bytes of every
// source in srcs (at least one, each at least len(dst) bytes long): the
// path every CPU without the assembly kernel runs.
func xorPortable(dst []byte, srcs [][]byte) {
	n := len(dst)
	if len(srcs) == 1 {
		copy(dst, srcs[0][:n])
		return
	}
	subtle.XORBytes(dst, srcs[0][:n], srcs[1][:n])
	for _, src := range srcs[2:] {
		subtle.XORBytes(dst, dst, src[:n])
	}
}
