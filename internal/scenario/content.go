package scenario

// content.go builds the scenario's deterministic content and the
// providers' initial working sets — seeded byte material and encoded
// symbol prefixes, all pure functions of the spec's seed.

import (
	"icd/internal/fountain"
	"icd/internal/peer"
	"icd/internal/prng"
)

// buildContent creates the scenario's content: blocks × blockSize bytes
// (minus a partial tail block, so padding paths are exercised) filled
// from the seed.
func buildContent(s Spec) (peer.ContentInfo, []byte) {
	rng := prng.New(s.Seed ^ 0xC0D7E47)
	content := make([]byte, s.Blocks*s.BlockSize-s.BlockSize/3)
	for i := range content {
		content[i] = byte(rng.Uint64())
	}
	info := peer.ContentInfo{
		ID:        0x1AB0000 ^ s.Seed,
		NumBlocks: s.Blocks,
		BlockSize: s.BlockSize,
		OrigLen:   len(content),
		CodeSeed:  s.Seed ^ 0x5EED,
	}
	return info, content
}

// encodeSymbols produces count distinct encoded symbols of the content,
// drawn from the symbol stream the given seed selects — a provider's
// initial working set, in one slab (fountain.DistinctSymbols).
func encodeSymbols(info peer.ContentInfo, content []byte, count int, seed uint64) (map[uint64][]byte, error) {
	blocks, _, err := fountain.ViewBlocks(content, info.BlockSize)
	if err != nil {
		return nil, err
	}
	code, err := fountain.NewCode(info.NumBlocks, nil, info.CodeSeed)
	if err != nil {
		return nil, err
	}
	return fountain.DistinctSymbols(code, blocks, seed, count)
}
