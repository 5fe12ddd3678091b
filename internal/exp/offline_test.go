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
