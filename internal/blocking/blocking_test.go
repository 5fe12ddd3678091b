package blocking

import (
	"reflect"
	"testing"

	"adaptivelink/internal/datagen"
	"adaptivelink/internal/join"
	"adaptivelink/internal/relation"
)

func testData(t *testing.T, n int) (*relation.Relation, *relation.Relation, []join.Pair) {
	t.Helper()
	spec := datagen.Defaults(datagen.Uniform, false)
	spec.ParentSize, spec.ChildSize = n, n
	spec.Seed = 77
	ds, err := datagen.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := join.NestedLoopApprox(join.Defaults(), ds.Parent, ds.Child)
	if err != nil {
		t.Fatal(err)
	}
	return ds.Parent, ds.Child, oracle
}

func TestTokenBlockerDedups(t *testing.T) {
	kf := TokenBlocker()
	got := kf("A B A C")
	if !reflect.DeepEqual(got, []string{"A", "B", "C"}) {
		t.Errorf("got %v", got)
	}
}

func TestBlocksPartition(t *testing.T) {
	rel := relation.FromKeys("r", "AAA X", "AAB Y", "ZZZ X")
	blocks := Blocks(rel, TokenBlocker())
	if !reflect.DeepEqual(blocks["X"], []int{0, 2}) {
		t.Errorf("X block %v", blocks["X"])
	}
	if !reflect.DeepEqual(blocks["AAB"], []int{1}) {
		t.Errorf("AAB block %v", blocks["AAB"])
	}
}

func TestLinkValidation(t *testing.T) {
	l := relation.FromKeys("l", "a")
	bad := join.Defaults()
	bad.Theta = 0
	if _, err := Link(bad, l, l, TokenBlocker()); err == nil {
		t.Error("bad config accepted")
	}
	if _, err := Link(join.Defaults(), l, l, nil); err == nil {
		t.Error("nil key function accepted")
	}
}

func TestTokenBlockingHighRecallOnVariants(t *testing.T) {
	// One-character variants corrupt at most one token of a multi-word
	// key, so token blocking must find essentially every oracle pair.
	left, right, oracle := testData(t, 300)
	res, err := Link(join.Defaults(), left, right, TokenBlocker())
	if err != nil {
		t.Fatal(err)
	}
	if rec := res.Recall(oracle); rec < 0.99 {
		t.Errorf("token-blocking recall %v, want >= 0.99", rec)
	}
	// And it must beat the nested loop on comparisons.
	if res.Comparisons >= left.Len()*right.Len() {
		t.Errorf("blocking did %d comparisons, nested loop needs %d",
			res.Comparisons, left.Len()*right.Len())
	}
	// Verified pairs are a subset of the oracle (same measure, same θ).
	oracleSet := map[[2]int]bool{}
	for _, p := range oracle {
		oracleSet[[2]int{p.LeftRef, p.RightRef}] = true
	}
	for _, p := range res.Pairs {
		if !oracleSet[[2]int{p.LeftRef, p.RightRef}] {
			t.Errorf("blocking invented pair %+v", p)
		}
	}
}

func TestSortedNeighborhood(t *testing.T) {
	left, right, oracle := testData(t, 300)
	res, err := SortedNeighborhood(join.Defaults(), left, right, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Sorted order puts exact duplicates adjacent, so SNM must recover
	// every key-equal pair.
	exact := join.NestedLoopExact(left, right)
	if rec := res.Recall(exact); rec < 1 {
		t.Errorf("SNM missed exact duplicates: recall %v", rec)
	}
	if res.Recall(oracle) <= 0.5 {
		t.Errorf("SNM overall recall %v suspiciously low", res.Recall(oracle))
	}
	if res.Comparisons >= left.Len()*right.Len() {
		t.Error("SNM did not reduce comparisons")
	}
}

func TestSortedNeighborhoodWindowWidens(t *testing.T) {
	left, right, oracle := testData(t, 200)
	narrow, err := SortedNeighborhood(join.Defaults(), left, right, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := SortedNeighborhood(join.Defaults(), left, right, 40, nil)
	if err != nil {
		t.Fatal(err)
	}
	if wide.Recall(oracle) < narrow.Recall(oracle) {
		t.Errorf("wider window lowered recall: %v -> %v",
			narrow.Recall(oracle), wide.Recall(oracle))
	}
	if wide.Comparisons <= narrow.Comparisons {
		t.Error("wider window did not increase comparisons")
	}
}

func TestSortedNeighborhoodValidation(t *testing.T) {
	l := relation.FromKeys("l", "a")
	if _, err := SortedNeighborhood(join.Defaults(), l, l, 1, nil); err == nil {
		t.Error("window=1 accepted")
	}
	bad := join.Defaults()
	bad.Q = 0
	if _, err := SortedNeighborhood(bad, l, l, 5, nil); err == nil {
		t.Error("bad config accepted")
	}
}

func TestRecallEdgeCases(t *testing.T) {
	r := &Result{}
	if r.Recall(nil) != 1 {
		t.Error("empty oracle recall should be 1")
	}
	r.Pairs = []join.Pair{{LeftRef: 0, RightRef: 0}}
	if got := r.Recall([]join.Pair{{LeftRef: 0, RightRef: 0}, {LeftRef: 1, RightRef: 1}}); got != 0.5 {
		t.Errorf("recall %v, want 0.5", got)
	}
}
