package shardmap

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"adaptivelink/internal/datagen"
	"adaptivelink/internal/qgram"
	"adaptivelink/internal/simfn"
)

func intersects(a, b []int) bool {
	for _, x := range a {
		for _, y := range b {
			if x == y {
				return true
			}
		}
	}
	return false
}

// TestPrefixRouterCoPartitions is the property the legacy signature
// placement rests on: any two keys whose similarity reaches θ under the join's
// measure must share at least one shard, at every shard count.
func TestPrefixRouterCoPartitions(t *testing.T) {
	// The paper's matching configuration (join.Defaults, restated here
	// because package join imports this one).
	cfg := struct {
		Q       int
		Measure simfn.TokenMeasure
		Theta   float64
	}{Q: 3, Measure: simfn.Jaccard, Theta: 0.75}
	sim := simfn.TokenSim(cfg.Measure, qgram.New(cfg.Q))

	// Perturbed child keys vs their parents give a dense supply of pairs
	// right at the threshold; random unrelated pairs rarely qualify, so
	// mix both.
	spec := datagen.Defaults(datagen.Uniform, true)
	spec.Seed, spec.ParentSize, spec.ChildSize = 7, 300, 300
	ds, err := datagen.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for _, shards := range []int{2, 4, 8, 13} {
		r := NewPrefixRouter(shards, cfg.Q, cfg.Measure, cfg.Theta)
		checked := 0
		check := func(a, b string) {
			s := sim(a, b)
			if a != b && s < cfg.Theta {
				return
			}
			checked++
			ra := r.Routes(nil, a)
			rb := r.Routes(nil, b)
			if !intersects(ra, rb) {
				t.Errorf("shards=%d: qualifying pair (%q, %q) sim=%.3f routed apart: %v vs %v",
					shards, a, b, s, ra, rb)
			}
		}
		for i := 0; i < ds.Child.Len(); i++ {
			child := ds.Child.At(i).Key
			parent := ds.Parent.At(ds.ChildParent[i]).Key
			check(child, parent)
		}
		for i := 0; i < 300; i++ {
			a := ds.Parent.At(rng.Intn(ds.Parent.Len())).Key
			b := ds.Parent.At(rng.Intn(ds.Parent.Len())).Key
			check(a, b)
		}
		if checked < 100 {
			t.Fatalf("shards=%d: only %d qualifying pairs checked; dataset too clean for the property to bite", shards, checked)
		}
	}
}

// TestPrefixRouterDeterministic: equal keys route identically and the
// route list is deduplicated and sorted.
func TestPrefixRouterDeterministic(t *testing.T) {
	r := NewPrefixRouter(8, 3, simfn.Jaccard, 0.75)
	for _, key := range []string{"", "a", "main street 12", "Ω≠ascii"} {
		r1 := r.Routes(nil, key)
		r2 := r.Routes(nil, key)
		if len(r1) == 0 {
			t.Fatalf("key %q routed nowhere", key)
		}
		if len(r1) != len(r2) {
			t.Fatalf("key %q nondeterministic: %v vs %v", key, r1, r2)
		}
		for i := range r1 {
			if r1[i] != r2[i] {
				t.Fatalf("key %q nondeterministic: %v vs %v", key, r1, r2)
			}
			if i > 0 && r1[i] <= r1[i-1] {
				t.Fatalf("key %q routes not sorted/deduped: %v", key, r1)
			}
			if r1[i] < 0 || r1[i] >= 8 {
				t.Fatalf("key %q route out of range: %v", key, r1)
			}
		}
	}
}

// TestRoutesReuse: the dst slice is reused without cross-call leakage.
func TestRoutesReuse(t *testing.T) {
	r := NewPrefixRouter(4, 3, simfn.Jaccard, 0.75)
	buf := r.Routes(nil, "first avenue")
	want := append([]int(nil), r.Routes(nil, "second boulevard")...)
	got := r.Routes(buf[:0], "second boulevard")
	if len(got) != len(want) {
		t.Fatalf("reused buffer changed routes: %v vs %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("reused buffer changed routes: %v vs %v", got, want)
		}
	}
}

// RoutesKey must return exactly what Routes returns for every key: the
// packed canonical gram order and byte-wise FNV shard hashing must
// agree with the string path, ASCII and non-ASCII alike.
func TestRoutesKeyMatchesRoutes(t *testing.T) {
	keys := []string{
		"", "a", "TAA BZ SANTA CRISTINA VALGARDENA", "via monte bianco 12",
		"münchen hauptbahnhof", "łódź 12", "東京都港区", "aaaaaaaa",
		"short", "x y z", "a#b$c",
	}
	for _, shards := range []int{1, 2, 4, 7} {
		r := NewPrefixRouter(shards, 3, simfn.Jaccard, 0.75)
		ex := qgram.New(3)
		var sc qgram.Scratch
		for _, key := range keys {
			sc.Reset()
			want := r.Routes(nil, key)
			got := r.RoutesKey(nil, key, ex.Decompose(&sc, key))
			if !reflect.DeepEqual(got, want) {
				t.Errorf("shards=%d key=%q: RoutesKey=%v Routes=%v", shards, key, got, want)
			}
		}
	}
}

func TestRoutesKeyMatchesRoutesRandom(t *testing.T) {
	r := NewPrefixRouter(5, 3, simfn.Jaccard, 0.75)
	ex := qgram.New(3)
	alpha := []rune("abAB 19é目#$")
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		rs := make([]rune, int(n)%30)
		for i := range rs {
			rs[i] = alpha[rng.Intn(len(alpha))]
		}
		key := string(rs)
		var sc qgram.Scratch
		return reflect.DeepEqual(
			r.RoutesKey(nil, key, ex.Decompose(&sc, key)),
			r.Routes(nil, key))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestShardOfBytesMatchesShardOf(t *testing.T) {
	for _, s := range []string{"", "a", "##r", "rom", "目"} {
		if ShardOfBytes([]byte(s), 7) != ShardOf(s, 7) {
			t.Errorf("ShardOfBytes(%q) != ShardOf", s)
		}
	}
}
