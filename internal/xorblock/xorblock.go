// Package xorblock is the XOR engine of the data plane. Every byte the
// system delivers flows through XOR-of-blocks loops — fountain encoding
// and peeling (§5.4.1), recoded-payload construction and propagation
// (§5.4.2) — so this one primitive bounds symbol throughput.
//
// The kernel is the standard library's: crypto/subtle.XORBytes, which is
// assembly-backed (SIMD) on amd64 and arm64 and portable Go elsewhere,
// so this repository carries no unsafe and no assembly of its own. It
// wins from 256-byte blocks up — the smallest any default or benchmark
// workload uses — and by 1.2–2× at the paper's 1400 bytes; on tiny
// blocks (64 bytes) its call overhead makes it slower than an inlined
// word loop, which nothing here would run.
//
// Length-mismatch semantics are explicit: only the common prefix
// min(len(dst), len(src)) is XORed and its length returned. Callers on
// equal-length hot paths (all of fountain and recode — block sizes are
// validated at construction) pay nothing for the guarantee; callers with
// ragged buffers get a defined, tested behavior instead of a silent
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

// XorBytes sets dst = a XOR b over the common prefix of all three slices
// and returns the number of bytes written. dst may alias a or b.
func XorBytes(dst, a, b []byte) int {
	n := min(len(dst), len(a), len(b))
	return subtle.XORBytes(dst[:n], a[:n], b[:n])
}
