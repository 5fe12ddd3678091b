package cli

import (
	"bytes"
	"encoding/csv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"adaptivelink/internal/datagen"
)

func runDatagen(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := RunDatagen(args, &out, &errb)
	return code, out.String(), errb.String()
}

func runJoin(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := RunAdaptiveJoin(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestDatagenGeneratesFiles(t *testing.T) {
	dir := t.TempDir()
	pOut := filepath.Join(dir, "p.csv")
	cOut := filepath.Join(dir, "c.csv")
	code, out, errb := runDatagen(t,
		"-parents", "200", "-children", "300", "-pattern", "few-high",
		"-parent-out", pOut, "-child-out", cOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb)
	}
	for _, want := range []string{"few-high/child-only", "parent 200 tuples", "child  300 tuples", "perturbation map"} {
		if !strings.Contains(out, want) {
			t.Errorf("stdout missing %q:\n%s", want, out)
		}
	}
	for _, path := range []string{pOut, cOut} {
		f, err := os.Open(path)
		if err != nil {
			t.Fatalf("output not written: %v", err)
		}
		rows, err := csv.NewReader(f).ReadAll()
		f.Close()
		if err != nil {
			t.Fatalf("%s: invalid csv: %v", path, err)
		}
		if len(rows) < 100 {
			t.Errorf("%s: only %d rows", path, len(rows))
		}
		if rows[0][0] != "location" {
			t.Errorf("%s: header %v", path, rows[0])
		}
	}
}

func TestDatagenQuiet(t *testing.T) {
	dir := t.TempDir()
	code, out, _ := runDatagen(t,
		"-parents", "50", "-children", "50", "-quiet",
		"-parent-out", filepath.Join(dir, "p.csv"), "-child-out", filepath.Join(dir, "c.csv"))
	if code != 0 || out != "" {
		t.Errorf("quiet run: code=%d stdout=%q", code, out)
	}
}

func TestDatagenRejectsBadArgs(t *testing.T) {
	if code, _, _ := runDatagen(t, "-pattern", "nope"); code != 2 {
		t.Errorf("bad pattern exit %d", code)
	}
	if code, _, errb := runDatagen(t, "-parents", "0"); code != 1 || !strings.Contains(errb, "parent size") {
		t.Errorf("bad size: code=%d stderr=%q", code, errb)
	}
	if code, _, _ := runDatagen(t, "-bogusflag"); code != 2 {
		t.Errorf("bad flag exit %d", code)
	}
	if code, _, errb := runDatagen(t, "-parents", "10", "-children", "10",
		"-parent-out", "/nonexistent-dir/x.csv"); code != 1 || !strings.Contains(errb, "write parent") {
		t.Errorf("unwritable output: code=%d stderr=%q", code, errb)
	}
}

func TestParsePattern(t *testing.T) {
	for _, name := range []string{"uniform", "interleaved-low", "few-high", "many-high"} {
		if _, ok := datagen.ParsePattern(name); !ok {
			t.Errorf("ParsePattern(%q) failed", name)
		}
	}
	if _, ok := datagen.ParsePattern("x"); ok {
		t.Error("ParsePattern accepted junk")
	}
}

// genPair writes a small parent/child CSV pair and returns their paths.
func genPair(t *testing.T) (string, string) {
	t.Helper()
	dir := t.TempDir()
	pOut := filepath.Join(dir, "p.csv")
	cOut := filepath.Join(dir, "c.csv")
	code, _, errb := runDatagen(t,
		"-parents", "300", "-children", "300", "-pattern", "few-high", "-quiet",
		"-parent-out", pOut, "-child-out", cOut)
	if code != 0 {
		t.Fatalf("datagen failed: %s", errb)
	}
	return pOut, cOut
}

func TestAdaptiveJoinEndToEnd(t *testing.T) {
	pOut, cOut := genPair(t)
	code, out, errb := runJoin(t,
		"-left", pOut, "-right", cOut, "-trace")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb)
	}
	rows, err := csv.NewReader(strings.NewReader(out)).ReadAll()
	if err != nil {
		t.Fatalf("stdout not csv: %v", err)
	}
	if len(rows) < 200 {
		t.Errorf("only %d match rows", len(rows))
	}
	if rows[0][0] != "left_key" || rows[0][3] != "exact" {
		t.Errorf("header %v", rows[0])
	}
	for _, want := range []string{"matches:", "steps:", "modelled cost"} {
		if !strings.Contains(errb, want) {
			t.Errorf("stats missing %q:\n%s", want, errb)
		}
	}
}

func TestAdaptiveJoinStrategies(t *testing.T) {
	pOut, cOut := genPair(t)
	counts := map[string]int{}
	for _, s := range []string{"exact", "approximate", "adaptive"} {
		code, out, errb := runJoin(t, "-left", pOut, "-right", cOut, "-strategy", s, "-stats=false")
		if code != 0 {
			t.Fatalf("%s: exit %d (%s)", s, code, errb)
		}
		counts[s] = strings.Count(out, "\n") - 1
	}
	if !(counts["exact"] <= counts["adaptive"] && counts["adaptive"] <= counts["approximate"]) {
		t.Errorf("completeness ordering violated: %v", counts)
	}
}

func TestAdaptiveJoinBudget(t *testing.T) {
	pOut, cOut := genPair(t)
	code, _, errb := runJoin(t, "-left", pOut, "-right", cOut, "-budget", "2000")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb)
	}
	if !strings.Contains(errb, "modelled cost") {
		t.Errorf("no stats: %s", errb)
	}
}

func TestAdaptiveJoinNormalize(t *testing.T) {
	dir := t.TempDir()
	l := filepath.Join(dir, "l.csv")
	r := filepath.Join(dir, "r.csv")
	os.WriteFile(l, []byte("location\nVia Garibaldi Dieci Genova\n"), 0o644)
	os.WriteFile(r, []byte("location\n  VIA   GARIBALDI DIECI GENOVA \n"), 0o644)
	code, out, errb := runJoin(t, "-left", l, "-right", r, "-strategy", "exact", "-normalize", "-stats=false")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb)
	}
	if strings.Count(out, "\n") != 2 { // header + 1 match
		t.Errorf("normalised keys did not match:\n%s", out)
	}
}

func TestAdaptiveJoinErrors(t *testing.T) {
	if code, _, _ := runJoin(t); code != 2 {
		t.Errorf("missing paths exit %d", code)
	}
	if code, _, _ := runJoin(t, "-left", "a.csv", "-right", "b.csv", "-strategy", "junk"); code != 2 {
		t.Errorf("bad strategy exit %d", code)
	}
	if code, _, errb := runJoin(t, "-left", "/no/such.csv", "-right", "/no/such2.csv"); code != 1 || errb == "" {
		t.Errorf("missing file: code=%d stderr=%q", code, errb)
	}
	pOut, cOut := genPair(t)
	if code, _, _ := runJoin(t, "-left", pOut, "-right", cOut, "-theta", "7"); code != 1 {
		t.Error("bad theta accepted")
	}
	if code, _, _ := runJoin(t, "-left", pOut, "-right", cOut, "-left-key", "missing"); code != 1 {
		t.Error("missing key column accepted")
	}
}

func TestAdaptiveJoinParallel(t *testing.T) {
	pOut, cOut := genPair(t)
	// Sequential and 4-shard runs over the same inputs: same match
	// count for the exact strategy (strict parity), and the parallel
	// stats block must appear.
	_, seqOut, _ := runJoin(t, "-left", pOut, "-right", cOut, "-strategy", "exact", "-stats=false", "-parallel", "1")
	code, parOut, errb := runJoin(t, "-left", pOut, "-right", cOut, "-strategy", "exact", "-parallel", "4")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb)
	}
	if seqN, parN := strings.Count(seqOut, "\n"), strings.Count(parOut, "\n"); seqN != parN {
		t.Errorf("parallel run returned %d rows, sequential %d", parN, seqN)
	}
	if !strings.Contains(errb, "parallelism: 4 shards") {
		t.Errorf("stats missing parallelism block:\n%s", errb)
	}
	// Adaptive across shards stays runnable end to end.
	code, _, errb = runJoin(t, "-left", pOut, "-right", cOut, "-strategy", "adaptive", "-parallel", "4", "-trace")
	if code != 0 {
		t.Fatalf("adaptive parallel exit %d: %s", code, errb)
	}
}

func TestAdaptiveJoinWindowBudgetParallel(t *testing.T) {
	pOut, cOut := genPair(t)
	// -window and -budget now compose with -parallel; windowed parallel
	// output must match windowed sequential output row-for-row (exact
	// strategy: strict parity, order-insensitive by construction of the
	// dataset's unique rows).
	_, seqOut, _ := runJoin(t, "-left", pOut, "-right", cOut, "-strategy", "exact", "-stats=false", "-window", "80", "-parallel", "1")
	code, parOut, errb := runJoin(t, "-left", pOut, "-right", cOut, "-strategy", "exact", "-window", "80", "-parallel", "4")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb)
	}
	if seqN, parN := strings.Count(seqOut, "\n"), strings.Count(parOut, "\n"); seqN != parN {
		t.Errorf("windowed parallel returned %d rows, sequential %d", parN, seqN)
	}
	if !strings.Contains(errb, "window: 80 tuples retained") {
		t.Errorf("stats missing window block:\n%s", errb)
	}
	// Budgeted adaptive on shards: runnable end to end, spend reported.
	code, _, errb = runJoin(t, "-left", pOut, "-right", cOut, "-strategy", "adaptive", "-budget", "2000", "-parallel", "4")
	if code != 0 {
		t.Fatalf("budgeted parallel exit %d: %s", code, errb)
	}
	if !strings.Contains(errb, "modelled spend") {
		t.Errorf("stats missing budget block:\n%s", errb)
	}
	if code, _, _ := runJoin(t, "-left", pOut, "-right", cOut, "-window", "-3"); code != 1 {
		t.Error("negative window accepted")
	}
}
