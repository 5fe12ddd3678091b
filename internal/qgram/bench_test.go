package qgram

import "testing"

// Gram-extraction microbenchmarks: the legacy string-materialising path
// vs the packed, scratch-reusing decomposition the probe hot path uses.

const benchKey = "TAA BZ SANTA CRISTINA VALGARDENA"

// benchKeyCyrillic is the multilingual counterpart: same shape, all
// runes non-ASCII BMP, so decomposition takes the rune-packed path.
const benchKeyCyrillic = "МОС СП САНКТ ПЕТЕРБУРГ ВАСИЛЬЕВСКИЙ"

func BenchmarkGramsStrings(b *testing.B) {
	ex := New(3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = ex.Grams(benchKey)
	}
}

func BenchmarkGramsStringsCyrillic(b *testing.B) {
	ex := New(3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = ex.Grams(benchKeyCyrillic)
	}
}

func BenchmarkDecomposePacked(b *testing.B) {
	ex := New(3)
	var sc Scratch
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sc.Reset()
		_ = ex.Decompose(&sc, benchKey)
	}
}

func BenchmarkDecomposePackedCyrillic(b *testing.B) {
	ex := New(3)
	var sc Scratch
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sc.Reset()
		_ = ex.Decompose(&sc, benchKeyCyrillic)
	}
}

func BenchmarkDictAppendIDs(b *testing.B) {
	ex := New(3)
	d := NewDict()
	var sc Scratch
	k := ex.Decompose(&sc, benchKey)
	d.Intern(nil, k)
	ids := make([]uint32, 0, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ids = d.AppendIDs(ids[:0], k)
	}
	_ = ids
}

func BenchmarkVerifyIntersectSortedIDs(b *testing.B) {
	ex := New(3)
	d := NewDict()
	var sc Scratch
	a := d.Intern(nil, ex.Decompose(&sc, benchKey))
	c := d.Intern(nil, ex.Decompose(&sc, "TAA BZ SANTA CRISTINX VALGARDENA"))
	sortIDs := func(s []uint32) {
		for i := 1; i < len(s); i++ {
			for j := i; j > 0 && s[j] < s[j-1]; j-- {
				s[j], s[j-1] = s[j-1], s[j]
			}
		}
	}
	sortIDs(a)
	sortIDs(c)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = IntersectSortedIDs(a, c)
	}
}
