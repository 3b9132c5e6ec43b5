//go:build !amd64

package xorblock

// xorSources sets dst to the XOR of the first len(dst) bytes of every
// source in srcs, of which there is at least one, each at least len(dst)
// bytes long.
func xorSources(dst []byte, srcs [][]byte) {
	xorPortable(dst, srcs)
}
