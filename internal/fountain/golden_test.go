package fountain

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"icd/internal/prng"
)

// goldenStreams are the SHA-256 digests of EncodeID's payloads for ids
// 0..2047, in order, over prng-seeded content. A symbol on the wire is
// (id, payload), so these digests are the wire: a change to the XOR
// kernel, the neighbor expansion or the degree distribution moves them,
// and must move protocol.Version with them. Block size 1001 leaves a
// tail of every width a word- or vector-wide kernel splits off.
var goldenStreams = map[string]string{
	"k=1024/bs=1400": "ba22ba2a9dc4e985ca7ebd2f1526fb0886f9636a225bfeaae25407d7fb9e6975",
	"k=1024/bs=256":  "3788b82d7a704006a7ddddfd9830c4f33803be7fd22ace866eb22fc1e750ed72",
	"k=1024/bs=1001": "d21e842ba1445507b8c4af0557c2c9475665b6fbc039b6f361c36e4a3f9eb27e",
	"k=4096/bs=1400": "0e5f97b0502696dd946c826d5489554db82c349ea891afd1f1b1b05a0c3ad33c",
	"k=4096/bs=256":  "641f2e5b37ed9259137551142ec7530e20b6bbbc0cca7ad5dfb228d09f228062",
	"k=4096/bs=1001": "a5982844f3b332648da2070e93a9d640c5362838688720bab12065a340a746bc",
}

func TestEncodeIDGoldenStream(t *testing.T) {
	for _, k := range []int{1024, 4096} {
		for _, bs := range []int{1400, 256, 1001} {
			name := fmt.Sprintf("k=%d/bs=%d", k, bs)
			t.Run(name, func(t *testing.T) {
				rng := prng.New(uint64(k*bs) + 11)
				blocks, _, err := SplitIntoBlocks(makeContent(rng, k*bs), bs)
				if err != nil {
					t.Fatal(err)
				}
				code, err := NewCode(k, nil, 5)
				if err != nil {
					t.Fatal(err)
				}
				enc, err := NewEncoder(code, blocks, 1)
				if err != nil {
					t.Fatal(err)
				}
				h := sha256.New()
				for id := uint64(0); id < 2048; id++ {
					sym := enc.EncodeID(id)
					h.Write(sym.Data)
					enc.Release(sym)
				}
				if got := hex.EncodeToString(h.Sum(nil)); got != goldenStreams[name] {
					t.Fatalf("payload digest %s, want %s", got, goldenStreams[name])
				}
			})
		}
	}
}
