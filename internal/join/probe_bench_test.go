package join

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"adaptivelink/internal/datagen"
	"adaptivelink/internal/relation"
)

// Probe-path microbenchmarks over the resident index, in the linkbench
// workload shape: a generated parent table of location keys, a probe
// stream referencing it with a 10% single-edit variant rate. One b.N
// unit is one probe (single shapes) or one batch (batch shapes), so
// ns/op and allocs/op are per probe resp. per batch.
//
// These are shapes for profiling while you work: `make bench` runs one
// iteration of each and nothing records them. The measured per-layer
// figures (join.probe_exact_ns_per_key, join.probe_approx_us_per_key)
// are in the repository benchmark's ledger.

const (
	benchParent      = 2000
	benchVariantRate = 0.10
	benchBatch       = 16
)

// benchWorkload builds the resident index and the probe key stream.
func benchWorkload(b *testing.B, shards int) (*ShardedRefIndex, []string) {
	b.Helper()
	gen := datagen.NewNameGen(1)
	rng := rand.New(rand.NewSource(2))
	keys := make([]string, benchParent)
	tuples := make([]relation.Tuple, benchParent)
	for i := range keys {
		keys[i] = gen.Next()
		tuples[i] = relation.Tuple{ID: i, Key: keys[i]}
	}
	idx, err := NewShardedRefIndex(Defaults(), shards)
	if err != nil {
		b.Fatal(err)
	}
	idx.Upsert(tuples)
	probes := make([]string, 4096)
	for i := range probes {
		k := keys[rng.Intn(len(keys))]
		if rng.Float64() < benchVariantRate {
			k = datagen.Mutate(rng, k)
		}
		probes[i] = k
	}
	return idx, probes
}

func benchProbeSingle(b *testing.B, mode Mode, shards int) {
	idx, probes := benchWorkload(b, shards)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.Probe(mode, probes[i%len(probes)])
	}
}

func benchProbeBatch(b *testing.B, mode Mode, shards int) {
	idx, probes := benchWorkload(b, shards)
	batches := make([][]string, 0, len(probes)/benchBatch)
	for i := 0; i+benchBatch <= len(probes); i += benchBatch {
		batches = append(batches, probes[i:i+benchBatch])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.ProbeBatch(mode, batches[i%len(batches)])
	}
}

// benchWorkloadCyrillic is benchWorkload with Cyrillic keys, the
// multilingual shape of the same linkbench workload: every probe runs
// the rune-packed gram path instead of the ASCII byte packing. The
// generator is inlined (syllable composition plus single-rune
// substitution variants) rather than routed through datagen's script
// profiles, so this file keeps compiling against older revisions for
// BASE_REF comparisons.
func benchWorkloadCyrillic(b *testing.B, shards int) (*ShardedRefIndex, []string) {
	b.Helper()
	// The pool mirrors the ASCII workload's gram diversity (40 syllables
	// there): a denser pool would inflate posting lists and bench the
	// data shape rather than the rune-packed path.
	syllables := []string{
		"МОС", "КВА", "НОВ", "ГОР", "ОД", "СК", "ПЕТ", "РО", "ВЛА", "ДИ",
		"КАЗ", "АНЬ", "ЕКА", "ТЕР", "ИН", "БУР", "СИБ", "ИР", "ВОЛ", "ГА",
		"ЯРО", "СЛА", "ВЛЬ", "СМО", "ЛЕН", "КУР", "ГАН", "ТВЕ", "РЖ", "ОМ",
		"УФА", "ПЕР", "МЬ", "ТУЛ", "БРЯ", "НС", "КИ", "ХАБ", "АР", "ЧИ",
	}
	rng := rand.New(rand.NewSource(3))
	word := func() string {
		w := ""
		for n := 2 + rng.Intn(3); n > 0; n-- {
			w += syllables[rng.Intn(len(syllables))]
		}
		return w
	}
	seen := make(map[string]struct{}, benchParent)
	keys := make([]string, 0, benchParent)
	tuples := make([]relation.Tuple, 0, benchParent)
	for len(keys) < benchParent {
		k := word() + " " + word() + " " + word() + " " + word()
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		tuples = append(tuples, relation.Tuple{ID: len(keys), Key: k})
		keys = append(keys, k)
	}
	idx, err := NewShardedRefIndex(Defaults(), shards)
	if err != nil {
		b.Fatal(err)
	}
	idx.Upsert(tuples)
	mutate := func(k string) string {
		rs := []rune(k)
		i := rng.Intn(len(rs))
		for rs[i] == ' ' {
			i = rng.Intn(len(rs))
		}
		if rs[i] == 'Ж' {
			rs[i] = 'Щ'
		} else {
			rs[i] = 'Ж'
		}
		return string(rs)
	}
	probes := make([]string, 4096)
	for i := range probes {
		k := keys[rng.Intn(len(keys))]
		if rng.Float64() < benchVariantRate {
			k = mutate(k)
		}
		probes[i] = k
	}
	return idx, probes
}

func benchProbeSingleCyrillic(b *testing.B, mode Mode, shards int) {
	idx, probes := benchWorkloadCyrillic(b, shards)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.Probe(mode, probes[i%len(probes)])
	}
}

func BenchmarkResidentProbeExact(b *testing.B)  { benchProbeSingle(b, Exact, 1) }
func BenchmarkResidentProbeApprox(b *testing.B) { benchProbeSingle(b, Approx, 1) }

func BenchmarkResidentProbeExactCyrillic(b *testing.B)  { benchProbeSingleCyrillic(b, Exact, 1) }
func BenchmarkResidentProbeApproxCyrillic(b *testing.B) { benchProbeSingleCyrillic(b, Approx, 1) }

func BenchmarkResidentProbeBatchExact(b *testing.B)  { benchProbeBatch(b, Exact, 1) }
func BenchmarkResidentProbeBatchApprox(b *testing.B) { benchProbeBatch(b, Approx, 1) }

func BenchmarkResidentProbeBatchExactSharded(b *testing.B)  { benchProbeBatch(b, Exact, 4) }
func BenchmarkResidentProbeBatchApproxSharded(b *testing.B) { benchProbeBatch(b, Approx, 4) }

// scalingKey is the i-th key of the reference-size sweep: three words
// of two to four syllables plus the row number — distinct by
// construction, a few thousand distinct grams whatever the row count —
// cheap enough that a 200k-row reference generates in milliseconds.
func scalingKey(i int) string {
	syllables := [...]string{
		"MON", "TE", "RO", "SA", "LA", "GO", "CO", "MO", "VAL", "LE", "VER", "DE", "PIA", "ZZA", "DUO", "BOR",
		"SAN", "TA", "LU", "CIA", "NOR", "SUD", "EST", "VIA", "COR", "SO", "EU", "PA", "STRA", "DA", "FIU", "ME",
	}
	// A splitmix64 stream seeded by i: a rand.Source per key would cost
	// more than indexing the key.
	state := uint64(i)
	next := func(n int) int {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		return int((z ^ z>>31) % uint64(n))
	}
	key := make([]byte, 0, 48)
	for w := 0; w < 3; w++ {
		for n := 2 + next(3); n > 0; n-- {
			key = append(key, syllables[next(len(syllables))]...)
		}
		key = append(key, ' ')
	}
	return string(strconv.AppendInt(key, int64(i), 10))
}

// scalingIndex builds a 4-shard resident index over rows scalingKeys.
func scalingIndex(tb testing.TB, rows int) *ShardedRefIndex {
	tb.Helper()
	tuples := make([]relation.Tuple, rows)
	for i := range tuples {
		tuples[i] = relation.Tuple{ID: i, Key: scalingKey(i), Attrs: []string{"v0"}}
	}
	idx, err := BuildShardedRefIndex(Defaults(), 4, tuples)
	if err != nil {
		tb.Fatal(err)
	}
	return idx
}

// scalingBatch is the b-th maintenance batch against scalingIndex(rows)
// in the repository benchmark's shape: 8 keys new to the index and 8
// payload replacements of resident keys spread over the reference.
func scalingBatch(rows, b int) []relation.Tuple {
	batch := make([]relation.Tuple, 0, 16)
	for j := 0; j < 8; j++ {
		fresh := rows + 8*b + j
		batch = append(batch, relation.Tuple{ID: fresh, Key: scalingKey(fresh), Attrs: []string{"new"}})
	}
	for j := 0; j < 8; j++ {
		resident := (b*7919 + j*104729) % rows
		batch = append(batch, relation.Tuple{ID: resident, Key: scalingKey(resident), Attrs: []string{"v" + strconv.Itoa(b+1)}})
	}
	return batch
}

// BenchmarkUpsertScaling is one maintenance batch against references
// of two sizes: with structural sharing the two cost the same.
func BenchmarkUpsertScaling(b *testing.B) {
	for _, rows := range []int{20_000, 200_000} {
		b.Run(fmt.Sprintf("%dk", rows/1000), func(b *testing.B) {
			idx := scalingIndex(b, rows)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				idx.Upsert(scalingBatch(rows, i))
			}
		})
	}
}
