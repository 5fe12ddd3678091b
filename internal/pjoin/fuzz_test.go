package pjoin

import (
	"testing"

	"adaptivelink/internal/relation"
	"adaptivelink/internal/shardmap"
	"adaptivelink/internal/stream"
)

// FuzzRoute fuzzes the scan-clock contract the splitter rests on, over
// arbitrary unicode keys (extending the internal/qgram fuzz pattern to
// the parallel layer): driving the production stamper over an
// interleaved dispatch of the two keys, each to its home shard, the
// per-side sequence stamps observed by every shard are strictly
// increasing, the global dispatch positions are strictly increasing, and
// the opposite-side progress stamp is consistent with the dispatch order
// — the invariants the sliding-window floors and the consistent-cut
// controller replay are built on.
func FuzzRoute(f *testing.F) {
	f.Add("TAA BZ SANTA CRISTINA", "TAA BZ SANTA CRISTINB", uint8(4), uint8(7))
	f.Add("", "a", uint8(1), uint8(3))
	f.Add("日本語テキスト", "日本語テキス", uint8(13), uint8(5))
	f.Add("\x00\xff", "\x00", uint8(2), uint8(2))
	f.Add("same key", "same key", uint8(8), uint8(9))
	f.Add("   ", "\t", uint8(3), uint8(4))

	f.Fuzz(func(t *testing.T, a, b string, shardsRaw, nRaw uint8) {
		shards := int(shardsRaw)%8 + 1
		// Scan-clock invariants over an interleaved dispatch of the two
		// keys, via the production stamper and placement.
		n := int(nRaw)%16 + 2
		var st stamper
		var lastSeq [2]int
		type shardView struct {
			lastSeq   [2]int
			lastGstep int
			seen      [2]bool
		}
		views := make([]shardView, shards)
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
			s := shardmap.ShardOf(key, shards)
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
	})
}
