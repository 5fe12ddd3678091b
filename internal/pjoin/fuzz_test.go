package pjoin

import (
	"testing"

	"adaptivelink/internal/join"
	"adaptivelink/internal/qgram"
	"adaptivelink/internal/relation"
	"adaptivelink/internal/shardmap"
	"adaptivelink/internal/simfn"
	"adaptivelink/internal/stream"
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

// FuzzRoute fuzzes the two correctness contracts the splitter rests on,
// over arbitrary unicode keys (extending the internal/qgram fuzz
// pattern to the parallel layer):
//
//  1. Co-partitioning: any pair of keys that can match — equal keys, or
//     keys whose similarity reaches θsim — must share at least one
//     shard under the PrefixRouter (equal keys also under KeyRouter).
//  2. Scan-clock stamping: driving the production stamper over an
//     interleaved dispatch of the two keys, the per-side sequence
//     stamps observed by every shard are strictly increasing, the
//     global dispatch positions are strictly increasing, and the
//     opposite-side progress stamp is consistent with the dispatch
//     order — the invariants the sliding-window floors and the
//     consistent-cut controller replay are built on.
func FuzzRoute(f *testing.F) {
	f.Add("TAA BZ SANTA CRISTINA", "TAA BZ SANTA CRISTINB", uint8(4), uint8(7))
	f.Add("", "a", uint8(1), uint8(3))
	f.Add("日本語テキスト", "日本語テキス", uint8(13), uint8(5))
	f.Add("\x00\xff", "\x00", uint8(2), uint8(2))
	f.Add("same key", "same key", uint8(8), uint8(9))
	f.Add("   ", "\t", uint8(3), uint8(4))

	cfg := join.Defaults()
	sim := simfn.TokenSim(cfg.Measure, qgram.New(cfg.Q))

	f.Fuzz(func(t *testing.T, a, b string, shardsRaw, nRaw uint8) {
		shards := int(shardsRaw)%8 + 1
		pr := shardmap.NewPrefixRouter(shards, cfg.Q, cfg.Measure, cfg.Theta)
		kr := shardmap.NewKeyRouter(shards)

		checkRoutes := func(r shardmap.Router, key string) []int {
			routes := r.Routes(nil, key)
			if len(routes) == 0 {
				t.Fatalf("key %q routed nowhere", key)
			}
			for i, s := range routes {
				if s < 0 || s >= shards {
					t.Fatalf("key %q routed to shard %d outside [0,%d)", key, s, shards)
				}
				if i > 0 && routes[i] <= routes[i-1] {
					t.Fatalf("key %q routes not strictly sorted: %v", key, routes)
				}
			}
			again := r.Routes(nil, key)
			if len(again) != len(routes) {
				t.Fatalf("key %q routes nondeterministic: %v vs %v", key, routes, again)
			}
			for i := range routes {
				if routes[i] != again[i] {
					t.Fatalf("key %q routes nondeterministic: %v vs %v", key, routes, again)
				}
			}
			return routes
		}

		ra, rb := checkRoutes(pr, a), checkRoutes(pr, b)
		if a == b || sim(a, b) >= cfg.Theta {
			if !intersects(ra, rb) {
				t.Fatalf("shards=%d: qualifying pair (%q, %q) sim=%.3f routed apart: %v vs %v",
					shards, a, b, sim(a, b), ra, rb)
			}
		}
		ka, kb := checkRoutes(kr, a), checkRoutes(kr, b)
		if a == b && ka[0] != kb[0] {
			t.Fatalf("KeyRouter split equal keys %q: %d vs %d", a, ka[0], kb[0])
		}

		// Scan-clock invariants over an interleaved dispatch of the two
		// keys, via the production stamper and router.
		n := int(nRaw)%16 + 2
		var st stamper
		var lastSeq [2]int
		type shardView struct {
			lastSeq   [2]int
			lastGstep int
			seen      [2]bool
		}
		views := make([]shardView, shards)
		var routes []int
		for i := 0; i < n; i++ {
			side := stream.Side(i % 2)
			key := a
			if side == stream.Right {
				key = b
			}
			rt := st.stamp(side, relation.Tuple{Key: key})
			if rt.seq != lastSeq[side] {
				t.Fatalf("dispatch %d: side %v seq %d, want dense %d", i, side, rt.seq, lastSeq[side])
			}
			lastSeq[side]++
			if rt.opp != lastSeq[side.Other()] {
				t.Fatalf("dispatch %d: opposite progress stamp %d, want %d", i, rt.opp, lastSeq[side.Other()])
			}
			if rt.gstep != i+1 {
				t.Fatalf("dispatch %d: global step %d, want %d", i, rt.gstep, i+1)
			}
			routes = pr.Routes(routes[:0], key)
			for _, s := range routes {
				v := &views[s]
				if v.seen[side] && rt.seq <= v.lastSeq[side] {
					t.Fatalf("shard %d: side %v seq not strictly increasing: %d after %d",
						s, side, rt.seq, v.lastSeq[side])
				}
				if v.lastGstep >= rt.gstep {
					t.Fatalf("shard %d: global step not strictly increasing: %d after %d",
						s, rt.gstep, v.lastGstep)
				}
				v.lastSeq[side], v.seen[side], v.lastGstep = rt.seq, true, rt.gstep
			}
		}
	})
}
