package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// resultFile is what --repeat writes: N full end-to-end sets of one
// build on one host, every metric with every set's value and sample
// count.
type resultFile struct {
	NProc     int                           `json:"nproc"`
	Go        string                        `json:"go"`
	Commit    string                        `json:"commit"`
	Seed      int64                         `json:"seed"`
	Seconds   float64                       `json:"seconds"`
	Sets      int                           `json:"sets"`
	Workloads map[string]map[string]*series `json:"workloads"`
}

// series is one metric on one workload across the sets.
type series struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	N      []int     `json:"n"`
}

// manifest is the part of BENCHMARK.json --compare needs.
type manifest struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
}

func readManifest(root string) (*manifest, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &m, nil
}

// repeatSets runs n full end-to-end sets, set i on seed+i as the
// acceptance rule does, and writes them to out/result-<k>.json with k
// the first number not taken.
func repeatSets(e env, ws []workload, n int, seed int64, seconds float64, stdout, stderr io.Writer) int {
	res := resultFile{
		NProc: runtime.NumCPU(), Go: runtime.Version(), Commit: commit(e.outDir),
		Seed: seed, Seconds: seconds, Sets: n, Workloads: map[string]map[string]*series{},
	}
	for i := 0; i < n; i++ {
		for _, w := range ws {
			o, err := runEndToEnd(e, w, seed+int64(i), seconds)
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
				return 1
			}
			printOutcome(stdout, w, o, false)
			if !o.Correct {
				for _, err := range o.errs {
					fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
				}
				return 1
			}
			byMetric := res.Workloads[w.name]
			if byMetric == nil {
				byMetric = map[string]*series{}
				res.Workloads[w.name] = byMetric
			}
			for _, d := range measured {
				s := byMetric[d.name]
				if s == nil {
					s = &series{Unit: d.unit}
					byMetric[d.name] = s
				}
				s.Values = append(s.Values, o.Metrics[d.name].Value)
				s.N = append(s.N, o.Metrics[d.name].N)
			}
		}
	}
	raw, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	for k := 1; ; k++ {
		path := filepath.Join(e.outDir, fmt.Sprintf("result-%d.json", k))
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if os.IsExist(err) {
			continue
		}
		if err == nil {
			_, err = f.Write(append(raw, '\n'))
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "\nwrote %s (%d sets)\n", path, n)
		return 0
	}
}

// commit names the code measured: the git revision when the checkout
// is one, otherwise unknown.
func commit(dir string) string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// verdict compares two series of one metric. worse is how much b's
// median is worse than a's, as a share of a's; a spread wider than the
// bound leaves the question open instead of answering "unchanged". A
// metric without a bound (bound < 0) is only placed against the runs'
// own spread.
func verdict(a, b []float64, better string, bound float64) (worse, spread float64, word string) {
	ma, mb := median(a), median(b)
	if ma != 0 {
		worse = (mb - ma) / ma
		if better == "higher" {
			worse = -worse
		}
	}
	sa, oka := quartileSpread(a)
	sb, okb := quartileSpread(b)
	spread = max(sa, sb)
	switch {
	case !oka || !okb:
		return worse, spread, "unresolved (needs 2 sets a side)"
	case bound < 0 && worse > spread:
		return worse, spread, "worse than the spread"
	case bound < 0 && -worse > spread:
		return worse, spread, "better than the spread"
	case bound < 0:
		return worse, spread, "within the spread"
	case spread > bound:
		return worse, spread, "unresolved"
	case worse > bound:
		return worse, spread, "REGRESSED"
	case -worse > spread:
		return worse, spread, "improved"
	default:
		return worse, spread, "unchanged"
	}
}

// compareFiles prints, per workload and end-to-end metric, the two
// files' medians, how much worse the second is, the runs' own spread
// and the bound, and exits 1 when anything regressed.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	load := func(path string) (*resultFile, error) {
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var r resultFile
		if err := json.Unmarshal(raw, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &r, nil
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	a, err := load(pathA)
	if err != nil {
		return fail(err)
	}
	b, err := load(pathB)
	if err != nil {
		return fail(err)
	}
	root, err := repoRoot()
	if err != nil {
		return fail(err)
	}
	m, err := readManifest(root)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "a: %s  commit %s, %d sets, nproc %d, %s\n", pathA, a.Commit, a.Sets, a.NProc, a.Go)
	fmt.Fprintf(stdout, "b: %s  commit %s, %d sets, nproc %d, %s\n", pathB, b.Commit, b.Sets, b.NProc, b.Go)
	code := 0
	for _, w := range m.Workloads {
		if a.Workloads[w.Name] == nil && b.Workloads[w.Name] == nil {
			continue
		}
		fmt.Fprintf(stdout, "\n%s\n  %-28s %14s %14s %9s %8s %7s  %s\n", w.Name, "metric", "median a", "median b", "b worse", "spread", "bound", "")
		row := func(name, better string, bound float64) {
			sa, sb := a.Workloads[w.Name][name], b.Workloads[w.Name][name]
			if sa == nil || sb == nil {
				fmt.Fprintf(stdout, "  %-28s missing from one file\n", name)
				return
			}
			worse, spread, word := verdict(sa.Values, sb.Values, better, bound)
			if word == "REGRESSED" {
				code = 1
			}
			limit := "      -"
			if bound >= 0 {
				limit = fmt.Sprintf("%6.1f%%", 100*bound)
			}
			fmt.Fprintf(stdout, "  %-28s %14.4f %14.4f %+8.1f%% %7.1f%% %s  %s\n",
				name, median(sa.Values), median(sb.Values), 100*worse, 100*spread, limit, word)
		}
		for _, d := range m.EndToEnd {
			row(d.Name, d.Better, d.Bound)
		}
		for _, d := range m.PerLayer[:len(timings)] {
			row(d.Name, d.Better, -1)
		}
	}
	return code
}
