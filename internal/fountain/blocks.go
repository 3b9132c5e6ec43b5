package fountain

import (
	"errors"
	"fmt"
)

// SplitIntoBlocks divides data into fixed-size source blocks, zero-padding
// the final block. It returns the blocks and the original length, which
// JoinBlocks needs to strip the padding. The paper's content pipeline
// (§6.1) used 1400-byte blocks so each encoded symbol fits a single
// Ethernet-safe packet. The blocks are views of one n×blockSize copy of
// data, each clipped to its own length, so an append to one cannot write
// the next.
func SplitIntoBlocks(data []byte, blockSize int) ([][]byte, int, error) {
	if blockSize < 1 {
		return nil, 0, errors.New("fountain: non-positive block size")
	}
	if len(data) == 0 {
		return nil, 0, errors.New("fountain: empty content")
	}
	n := (len(data) + blockSize - 1) / blockSize
	buf := make([]byte, n*blockSize)
	copy(buf, data)
	blocks := make([][]byte, n)
	for i := range blocks {
		lo := i * blockSize
		blocks[i] = buf[lo : lo+blockSize : lo+blockSize]
	}
	return blocks, len(data), nil
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
