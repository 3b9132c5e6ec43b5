package fountain

import (
	"errors"
	"fmt"
)

// NumBlocks is how many blockSize-byte blocks hold n bytes of content:
// the block count SplitIntoBlocks and ViewBlocks give, and their errors,
// reckoned without touching the content.
func NumBlocks(n, blockSize int) (int, error) {
	if blockSize < 1 {
		return 0, errors.New("fountain: non-positive block size")
	}
	if n < 1 {
		return 0, errors.New("fountain: empty content")
	}
	return (n + blockSize - 1) / blockSize, nil
}

// SplitIntoBlocks divides data into fixed-size source blocks, zero-padding
// the final block. It returns the blocks and the original length, which
// JoinBlocks needs to strip the padding. The paper's content pipeline
// (§6.1) used 1400-byte blocks so each encoded symbol fits a single
// Ethernet-safe packet. The blocks are views of one n×blockSize copy of
// data, each clipped to its own length, so an append to one cannot write
// the next.
func SplitIntoBlocks(data []byte, blockSize int) ([][]byte, int, error) {
	n, err := NumBlocks(len(data), blockSize)
	if err != nil {
		return nil, 0, err
	}
	buf := make([]byte, n*blockSize)
	copy(buf, data)
	blocks := make([][]byte, n)
	for i := range blocks {
		lo := i * blockSize
		blocks[i] = buf[lo : lo+blockSize : lo+blockSize]
	}
	return blocks, len(data), nil
}

// ViewBlocks divides data into blocks as SplitIntoBlocks does, but adopts
// data instead of copying it: each block is a view of data, clipped to
// its own length so an append to one cannot write the next, and only a
// final block that needs zero padding is a copy. data must not be
// modified while the blocks are in use.
func ViewBlocks(data []byte, blockSize int) ([][]byte, int, error) {
	n, err := NumBlocks(len(data), blockSize)
	if err != nil {
		return nil, 0, err
	}
	blocks := make([][]byte, n)
	for i := range blocks {
		lo, hi := i*blockSize, (i+1)*blockSize
		if hi <= len(data) {
			blocks[i] = data[lo:hi:hi]
		} else {
			blocks[i] = make([]byte, blockSize)
			copy(blocks[i], data[lo:])
		}
	}
	return blocks, len(data), nil
}

// DistinctSymbols draws count distinct encoded symbols of the content
// from the stream streamSeed selects — a partial sender's working set —
// and returns them by id. The payloads are views of one count×blockSize
// slab, each clipped to its own length, so an append to one cannot write
// the next: the set costs the slab and the map, not a buffer a symbol.
func DistinctSymbols(code *Code, blocks [][]byte, streamSeed uint64, count int) (map[uint64][]byte, error) {
	enc, err := NewEncoder(code, blocks, streamSeed)
	if err != nil {
		return nil, err
	}
	count = max(count, 0)
	size := len(blocks[0])
	slab := make([]byte, count*size)
	symbols := make(map[uint64][]byte, count)
	for len(symbols) < count {
		sym := enc.Next()
		if _, dup := symbols[sym.ID]; !dup {
			lo, hi := len(symbols)*size, (len(symbols)+1)*size
			symbols[sym.ID] = slab[lo:hi:hi]
			copy(slab[lo:hi], sym.Data)
		}
		enc.Release(sym)
	}
	return symbols, nil
}

// JoinBlocks reassembles the original content from fully recovered blocks.
func JoinBlocks(blocks [][]byte, origLen int) ([]byte, error) {
	if len(blocks) == 0 {
		return nil, errors.New("fountain: no blocks")
	}
	blockSize := len(blocks[0])
	if origLen < 1 || origLen > len(blocks)*blockSize {
		return nil, fmt.Errorf("fountain: original length %d outside (0, %d]", origLen, len(blocks)*blockSize)
	}
	out := make([]byte, 0, origLen)
	for i, b := range blocks {
		if b == nil {
			return nil, fmt.Errorf("fountain: block %d not recovered", i)
		}
		if len(b) != blockSize {
			return nil, fmt.Errorf("fountain: block %d has size %d, want %d", i, len(b), blockSize)
		}
		out = append(out, b...)
	}
	return out[:origLen], nil
}

// DefaultBlockSize is the paper's packetization: 1400-byte blocks (§6.1).
const DefaultBlockSize = 1400

// PaperBlockCount is the §6.1 configuration: a 32MB file divided into
// 23,968 source blocks of 1400 bytes.
const PaperBlockCount = 23968
