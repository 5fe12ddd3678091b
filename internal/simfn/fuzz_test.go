package simfn

import (
	"math"
	"testing"
)

// FuzzSimilarities asserts that the paper's similarity function stays
// within [0,1], is symmetric, and scores identical inputs as 1.
func FuzzSimilarities(f *testing.F) {
	f.Add("SANTA CRISTINA", "SANTA CRISTINx")
	f.Add("", "")
	f.Add("a", "")
	f.Add("日本", "日本語")
	jac := JaccardQGram(3)
	f.Fuzz(func(t *testing.T, a, b string) {
		s1, s2 := jac(a, b), jac(b, a)
		if math.Abs(s1-s2) > 1e-9 {
			t.Fatalf("asymmetric: %v vs %v", s1, s2)
		}
		if s1 < 0 || s1 > 1+1e-9 || math.IsNaN(s1) {
			t.Fatalf("out of range: %v", s1)
		}
		if self := jac(a, a); math.Abs(self-1) > 1e-9 {
			t.Fatalf("self-similarity %v", self)
		}
	})
}
