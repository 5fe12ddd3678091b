package exp

import (
	"bytes"
	"encoding/csv"
	"strings"
	"testing"
)

func TestCompareOfflineOnline(t *testing.T) {
	tc := PaperTestCases(5, 500, 500)[0]
	rc := DefaultRunConfig()
	rc.Params.DeltaAdapt, rc.Params.W = 50, 50
	results, err := CompareOfflineOnline(tc, rc)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("got %d methods", len(results))
	}
	byName := map[string]OfflineResult{}
	for _, r := range results {
		byName[r.Method] = r
		if r.Pairs < 0 || r.Recall < 0 || r.Recall > 1.01 || r.Wall <= 0 {
			t.Errorf("degenerate result %+v", r)
		}
	}
	ssh := byName["online/sshjoin"]
	if ssh.Recall != 1 {
		t.Errorf("ceiling method recall %v", ssh.Recall)
	}
	// Token blocking sees all data offline with the same θ: recall near 1.
	if tb := byName["offline/token-blocking"]; tb.Recall < 0.95 {
		t.Errorf("token blocking recall %v", tb.Recall)
	}
	// Adaptive online sits between the exact floor and the ceiling.
	if ad := byName["online/adaptive"]; ad.Pairs > ssh.Pairs {
		t.Errorf("adaptive found more than the ceiling: %d > %d", ad.Pairs, ssh.Pairs)
	}
	table := OfflineTable(results)
	for _, want := range []string{"online/adaptive", "offline/snm-w10", "recall"} {
		if !strings.Contains(table, want) {
			t.Errorf("OfflineTable missing %q:\n%s", want, table)
		}
	}
}

func TestCompareOfflineOnlineSharesRunCase(t *testing.T) {
	// The online rows are RunCase's runs under the same config, armed
	// the same way: a budget that bites caps the adaptive row too.
	tc := PaperTestCases(5, 500, 500)[4] // few-high/child-only
	rc := DefaultRunConfig()
	rc.Params.DeltaAdapt, rc.Params.W = 50, 50
	free, err := RunCase(tc, rc)
	if err != nil {
		t.Fatal(err)
	}
	rc.CostBudget = 1_500
	for _, parallel := range []int{1, 4} {
		rc.Parallelism = parallel
		res, err := RunCase(tc, rc)
		if err != nil {
			t.Fatal(err)
		}
		if res.RAbs >= free.RAbs {
			t.Fatalf("P=%d: budget %v left r_abs at %d (unbudgeted %d); the test needs one that bites",
				parallel, rc.CostBudget, res.RAbs, free.RAbs)
		}
		cmp, err := CompareOfflineOnline(tc, rc)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range cmp {
			switch r.Method {
			case "online/adaptive":
				if r.Pairs != res.RAbs || r.Comparisons != res.AdaptiveStats.Steps {
					t.Errorf("P=%d: online/adaptive %d pairs, %d units; RunCase r_abs %d, %d steps",
						parallel, r.Pairs, r.Comparisons, res.RAbs, res.AdaptiveStats.Steps)
				}
			case "online/sshjoin":
				if r.Pairs != res.RApx {
					t.Errorf("P=%d: online/sshjoin %d pairs, RunCase R %d", parallel, r.Pairs, res.RApx)
				}
			}
		}
	}

	rc.Join.RetainWindow = 150
	if _, err := CompareOfflineOnline(tc, rc); err == nil || !strings.Contains(err.Error(), "window") {
		t.Errorf("windowed offline comparison = %v, want an error naming the window", err)
	}
}

func TestWriteResultsCSV(t *testing.T) {
	rc := DefaultRunConfig()
	rc.Params.DeltaAdapt, rc.Params.W = 50, 50
	res, err := RunCase(PaperTestCases(7, 400, 400)[2], rc)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteResultsCSV(&buf, []*Result{res}); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("invalid CSV: %v", err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	if len(rows[0]) != len(rows[1]) {
		t.Errorf("ragged CSV: header %d fields, row %d", len(rows[0]), len(rows[1]))
	}
	if rows[1][0] != res.Case.ID {
		t.Errorf("case column = %q", rows[1][0])
	}
}
