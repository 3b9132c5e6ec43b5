package xorblock

import (
	"bytes"
	"testing"

	"icd/internal/prng"
)

// naiveXor is the reference semantics: XOR the common prefix one byte at
// a time, return its length.
func naiveXor(dst, src []byte) int {
	n := len(dst)
	if len(src) < n {
		n = len(src)
	}
	for i := 0; i < n; i++ {
		dst[i] ^= src[i]
	}
	return n
}

// TestXorIntoMatchesNaive cross-checks the word engine against the byte
// loop on every length 0–1025 with mismatched dst/src sizes.
func TestXorIntoMatchesNaive(t *testing.T) {
	rng := prng.New(1)
	fill := func(b []byte) {
		for i := range b {
			b[i] = byte(rng.Uint64())
		}
	}
	for dstLen := 0; dstLen <= 1025; dstLen++ {
		// src shorter, equal and longer than dst.
		for _, srcLen := range []int{0, dstLen / 2, dstLen, dstLen + 1, dstLen + 63} {
			dst := make([]byte, dstLen)
			src := make([]byte, srcLen)
			fill(dst)
			fill(src)
			want := append([]byte(nil), dst...)
			wantN := naiveXor(want, src)

			got := append([]byte(nil), dst...)
			gotN := XorInto(got, src)
			if gotN != wantN {
				t.Fatalf("XorInto(%d,%d) returned %d, want %d", dstLen, srcLen, gotN, wantN)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("XorInto(%d,%d) produced wrong bytes", dstLen, srcLen)
			}
		}
	}
}

// TestXorIntoUnaligned exercises sub-slices at every offset mod 8 so the
// engine is checked on buffers whose backing arrays are not word-aligned.
func TestXorIntoUnaligned(t *testing.T) {
	rng := prng.New(2)
	base := make([]byte, 2100)
	src := make([]byte, 2100)
	for i := range base {
		base[i] = byte(rng.Uint64())
		src[i] = byte(rng.Uint64())
	}
	for off := 0; off < 16; off++ {
		for _, n := range []int{0, 1, 7, 8, 9, 63, 64, 65, 1024, 1400} {
			dst := append([]byte(nil), base...)
			want := append([]byte(nil), base...)
			naiveXor(want[off:off+n], src[off:off+n])
			XorInto(dst[off:off+n], src[off:off+n])
			if !bytes.Equal(dst, want) {
				t.Fatalf("offset %d len %d: mismatch", off, n)
			}
		}
	}
}

func TestXorIntoSelfInverse(t *testing.T) {
	rng := prng.New(3)
	a := make([]byte, 1400)
	b := make([]byte, 1400)
	for i := range a {
		a[i] = byte(rng.Uint64())
		b[i] = byte(rng.Uint64())
	}
	dst := append([]byte(nil), a...)
	XorInto(dst, b)
	XorInto(dst, b)
	if !bytes.Equal(dst, a) {
		t.Fatal("XOR twice is not the identity")
	}
}

func TestXorIntoAliased(t *testing.T) {
	a := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9}
	XorInto(a, a)
	for i, v := range a {
		if v != 0 {
			t.Fatalf("a[%d] = %d after self-XOR, want 0", i, v)
		}
	}
}

// naiveSources is the reference for the fused kernels: dst[j] is the XOR
// of every source's byte j, one byte at a time.
func naiveSources(dst []byte, srcs [][]byte) {
	for j := range dst {
		var v byte
		for _, src := range srcs {
			v ^= src[j]
		}
		dst[j] = v
	}
}

// checkKernel cross-checks a fused kernel against naiveSources at every
// length 0–1100 (every remainder mod 32 and mod 8), at source counts up
// to past the k=4096 spike degree, with dst and the sources at every
// offset mod 8, and with dst exactly its first source. The guard bytes
// around dst must come back unchanged.
func checkKernel(t *testing.T, kernel func(dst []byte, srcs [][]byte)) {
	const maxLen, guard = 1100, 40
	rng := prng.New(5)
	pool := make([]byte, 300*(maxLen+8))
	for i := range pool {
		pool[i] = byte(rng.Uint64())
	}
	buf := make([]byte, guard+8+maxLen+guard)
	want := make([]byte, maxLen)
	for _, count := range []int{1, 2, 3, 13, 236, 300} {
		for off := 0; off < 8; off++ {
			srcs := make([][]byte, count)
			for j := range srcs {
				lo := j*(maxLen+8) + (off+j)%8
				srcs[j] = pool[lo : lo+maxLen]
			}
			naiveSources(want, srcs)
			for n := 0; n <= maxLen; n++ {
				for i := range buf {
					buf[i] = 0xA5
				}
				dst := buf[guard+off : guard+off+n]
				kernel(dst, srcs)
				if !bytes.Equal(dst, want[:n]) {
					t.Fatalf("count %d offset %d len %d: wrong bytes", count, off, n)
				}
				for i, v := range buf {
					if (i < guard+off || i >= guard+off+n) && v != 0xA5 {
						t.Fatalf("count %d offset %d len %d: wrote byte %d outside dst", count, off, n, i-guard-off)
					}
				}
			}
		}
		// dst exactly the first source.
		for _, n := range []int{0, 1, 7, 31, 33, 127, 129, 1001, maxLen} {
			srcs := make([][]byte, count)
			for j := range srcs {
				srcs[j] = pool[j*(maxLen+8) : j*(maxLen+8)+n]
			}
			naiveSources(want[:n], srcs)
			dst := append([]byte(nil), srcs[0]...)
			srcs[0] = dst
			kernel(dst, srcs)
			if !bytes.Equal(dst, want[:n]) {
				t.Fatalf("count %d len %d: wrong bytes with dst aliasing the first source", count, n)
			}
		}
	}
}

func TestXorPortableMatchesNaive(t *testing.T) { checkKernel(t, xorPortable) }

// gatherTable is a table of random blocks, each size bytes long.
func gatherTable(rng *prng.Rand, blocks, size int) [][]byte {
	buf := make([]byte, blocks*size)
	for i := range buf {
		buf[i] = byte(rng.Uint64())
	}
	table := make([][]byte, blocks)
	for i := range table {
		table[i] = buf[i*size : (i+1)*size : (i+1)*size]
	}
	return table
}

// TestXorGatherMatchesNaive checks the public kernel at degrees on both
// sides of a group and far past it, with int and int32 indices and with
// the skipped block absent from the table, as a decoder's unknown
// block is.
func TestXorGatherMatchesNaive(t *testing.T) {
	rng := prng.New(6)
	const size = 1001
	table := gatherTable(rng, 400, size)
	first := gatherTable(rng, 1, size)[0]
	for _, deg := range []int{0, 1, 2, 13, group - 1, group, group + 1, 2*group - 1, 2 * group, 236, 300} {
		idx := rng.SampleInts(len(table), deg+1)
		skip := idx[rng.Intn(len(idx))]
		saved := table[skip]
		table[skip] = nil
		srcs := [][]byte{first}
		for _, i := range idx {
			if i != skip {
				srcs = append(srcs, table[i])
			}
		}
		want := make([]byte, size)
		naiveSources(want, srcs)

		got := make([]byte, size)
		XorGather(got, first, table, idx, skip)
		if !bytes.Equal(got, want) {
			t.Fatalf("degree %d: wrong bytes", deg)
		}
		idx32 := make([]int32, len(idx))
		for j, i := range idx {
			idx32[j] = int32(i)
		}
		clear(got)
		XorGather(got, first, table, idx32, int32(skip))
		if !bytes.Equal(got, want) {
			t.Fatalf("degree %d: wrong bytes with int32 indices", deg)
		}
		table[skip] = saved

		// dst exactly first, and a negative skip naming no block.
		got = append(got[:0], first...)
		want2 := make([]byte, size)
		naiveSources(want2, append(srcs, saved))
		XorGather(got, got, table, idx, -1)
		if !bytes.Equal(got, want2) {
			t.Fatalf("degree %d: wrong bytes with dst as first", deg)
		}
	}
}

func TestXorGatherShortSourcePanics(t *testing.T) {
	table := [][]byte{make([]byte, 64), make([]byte, 63), make([]byte, 64)}
	for name, call := range map[string]func(){
		"first":  func() { XorGather(make([]byte, 64), make([]byte, 63), table, []int{0, 2}, -1) },
		"listed": func() { XorGather(make([]byte, 64), make([]byte, 64), table, []int{0, 1, 2}, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s source shorter than dst: no panic", name)
				}
			}()
			call()
		}()
	}
	// A longer source is read over dst's length only, and a short block
	// that is skipped is never read.
	dst := make([]byte, 63)
	XorGather(dst, make([]byte, 64), table, []int{0, 1, 2}, 0)
}

func TestXorGatherAllocs(t *testing.T) {
	rng := prng.New(7)
	table := gatherTable(rng, 300, 1400)
	idx := rng.SampleInts(len(table), 236)
	dst := make([]byte, 1400)
	if avg := testing.AllocsPerRun(100, func() {
		XorGather(dst, table[idx[0]], table, idx[1:], -1)
	}); avg != 0 {
		t.Fatalf("XorGather at degree 236 allocates %.1f per call, want 0", avg)
	}
}

// FuzzXorGather checks the kernel in force and the portable path
// against the byte loop on fuzzed lengths, offsets and source counts.
func FuzzXorGather(f *testing.F) {
	f.Add([]byte("the quick brown fox jumps over the lazy dog"), uint8(3), uint8(0))
	f.Add(bytes.Repeat([]byte{0xff, 0x00, 0x5a}, 500), uint8(13), uint8(5))
	f.Add(bytes.Repeat([]byte{1, 2, 3, 4, 5, 6, 7}, 300), uint8(1), uint8(7))
	f.Add(bytes.Repeat([]byte{0x80}, 1400), uint8(40), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, count, off uint8) {
		nsrc := int(count)%64 + 1
		shift := int(off) % 8
		if len(data) < nsrc+shift {
			return
		}
		n := (len(data) - shift) / nsrc
		table := make([][]byte, nsrc)
		idx := make([]int, nsrc)
		for j := range table {
			table[j] = data[shift+j*n : shift+(j+1)*n]
			idx[j] = j
		}
		want := make([]byte, n)
		naiveSources(want, table)
		got := make([]byte, n)
		XorGather(got, table[0], table, idx[1:], -1)
		if !bytes.Equal(got, want) {
			t.Fatalf("XorGather: %d sources of %d bytes: wrong bytes", nsrc, n)
		}
		for _, kernel := range []func([]byte, [][]byte){xorSources, xorPortable} {
			clear(got)
			kernel(got, table)
			if !bytes.Equal(got, want) {
				t.Fatalf("kernel: %d sources of %d bytes: wrong bytes", nsrc, n)
			}
		}
	})
}

// BenchmarkXorGather times one symbol's XOR at degrees 2, 13 (the mean
// at k=4096) and 236 (the k=4096 spike) over a k=4096 × 1400 B table,
// 5.7 MB and past one core's L2, its blocks drawn at random as a
// fetch's neighbor sets are: the fused kernel against the chain of one
// copy and d−1 XorInto calls it replaces.
func BenchmarkXorGather(b *testing.B) {
	const k, size, sets = 4096, 1400, 1024
	rng := prng.New(8)
	table := gatherTable(rng, k, size)
	dst := make([]byte, size)
	for _, deg := range []int{2, 13, 236} {
		idx := make([][]int, sets)
		for i := range idx {
			idx[i] = rng.SampleInts(k, deg)
		}
		b.Run("deg="+itoa(deg)+"/fused", func(b *testing.B) {
			b.SetBytes(int64(deg * size))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				nbrs := idx[i%sets]
				XorGather(dst, table[nbrs[0]], table, nbrs[1:], -1)
			}
		})
		b.Run("deg="+itoa(deg)+"/chain", func(b *testing.B) {
			b.SetBytes(int64(deg * size))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				nbrs := idx[i%sets]
				copy(dst, table[nbrs[0]])
				for _, j := range nbrs[1:] {
					XorInto(dst, table[j])
				}
			}
		})
	}
}

func BenchmarkXorInto(b *testing.B) {
	for _, size := range []int{64, 1024, 1400, 65536} {
		dst := make([]byte, size)
		src := make([]byte, size)
		b.Run(benchName(size), func(b *testing.B) {
			b.SetBytes(int64(size))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				XorInto(dst, src)
			}
		})
	}
}

func BenchmarkXorIntoNaive(b *testing.B) {
	for _, size := range []int{64, 1024, 1400, 65536} {
		dst := make([]byte, size)
		src := make([]byte, size)
		b.Run(benchName(size), func(b *testing.B) {
			b.SetBytes(int64(size))
			for i := 0; i < b.N; i++ {
				naiveXor(dst, src)
			}
		})
	}
}

func benchName(size int) string {
	switch {
	case size >= 1024 && size%1024 == 0:
		return itoa(size/1024) + "KiB"
	default:
		return itoa(size) + "B"
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
