package xorblock

import "testing"

func TestXorAVX2MatchesNaive(t *testing.T) {
	if !hasAVX2 {
		t.Skip("this CPU has no AVX2")
	}
	checkKernel(t, xorAVX2)
}
