// Command experiments regenerates every table and figure of the paper's
// evaluation section (§4): the perturbation-pattern maps (Fig. 5), the
// gain/cost/efficiency comparison across the eight test cases (Fig. 6),
// the per-state step and cost breakdowns (Figs. 7–8), the per-operation
// cost micro-measurements (Table 1) and the parameter-tuning sweep
// (§4.2).
//
// Usage:
//
//	experiments -all                      # everything at paper scale
//	experiments -fig6 -parents 2000      # one figure at reduced scale
//	experiments -tuning -case few-high/child-only
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"adaptivelink/internal/datagen"
	"adaptivelink/internal/exp"
	"adaptivelink/internal/join"
)

func main() {
	var (
		parents  = flag.Int("parents", datagen.DefaultParentSize, "parent table size |R|")
		children = flag.Int("children", datagen.DefaultParentSize, "child table size |S|")
		seed     = flag.Int64("seed", 1, "dataset seed")
		all      = flag.Bool("all", false, "run everything")
		fig5     = flag.Bool("fig5", false, "render the perturbation patterns")
		fig6     = flag.Bool("fig6", false, "gain/cost/efficiency across the 8 test cases")
		fig7     = flag.Bool("fig7", false, "per-state step breakdown")
		fig8     = flag.Bool("fig8", false, "per-state cost breakdown")
		table1   = flag.Bool("table1", false, "per-operation cost measurements")
		tuning   = flag.Bool("tuning", false, "parameter sweep (§4.2)")
		offline  = flag.Bool("offline", false, "offline (blocking/SNM) vs online comparison")
		caseID   = flag.String("case", "few-high/child-only", "test case for -tuning and -offline")
		topK     = flag.Int("top", 10, "tuning configurations to print")
		csvPath  = flag.String("csv", "", "also write the fig6/7/8 result table as CSV to this path")
		parallel = flag.Int("parallel", 1, "shards for the adaptive runs (1 = the paper's sequential engine)")
		window   = flag.Int("window", 0, "sliding-window retention per side in all three runs of a case (0 = retain everything); composes with -parallel, -offline refuses it")
		budget   = flag.Float64("budget", 0, "cost budget in all-exact-step units (0 = unlimited); composes with -parallel")
	)
	flag.Parse()
	if *all {
		*fig5, *fig6, *fig7, *fig8, *table1, *tuning, *offline = true, true, true, true, true, true, true
	}
	if !(*fig5 || *fig6 || *fig7 || *fig8 || *table1 || *tuning || *offline) {
		fmt.Fprintln(os.Stderr, "experiments: select at least one of -all -fig5 -fig6 -fig7 -fig8 -table1 -tuning -offline")
		flag.Usage()
		os.Exit(2)
	}

	rc := exp.DefaultRunConfig()
	rc.Parallelism = *parallel
	rc.Join.RetainWindow = *window
	rc.CostBudget = *budget

	if *fig5 {
		fmt.Println(exp.Fig5Maps(*children, 72))
	}
	if *table1 {
		rows, err := exp.MeasureTable1(min(*parents, 20000), *seed, join.Defaults())
		if err != nil {
			fail(err)
		}
		fmt.Println(exp.Table1Text(rows))
	}

	var results []*exp.Result
	if *fig6 || *fig7 || *fig8 {
		cases := exp.PaperTestCases(*seed, *parents, *children)
		fmt.Fprintf(os.Stderr, "running %d test cases at |R|=%d |S|=%d ...\n",
			len(cases), *parents, *children)
		start := time.Now()
		var err error
		results, err = exp.RunAll(cases, rc)
		if err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "done in %v\n\n", time.Since(start).Round(time.Millisecond))
	}
	if *fig6 {
		fmt.Println(exp.Fig6Table(results))
	}
	if *fig7 {
		fmt.Println(exp.Fig7Table(results))
	}
	if *fig8 {
		fmt.Println(exp.Fig8Table(results))
	}
	if results != nil {
		fmt.Println(exp.SummaryChecks(results, rc.Weights))
		if *csvPath != "" {
			f, err := os.Create(*csvPath)
			if err != nil {
				fail(err)
			}
			if err := exp.WriteResultsCSV(f, results); err != nil {
				f.Close()
				fail(err)
			}
			if err := f.Close(); err != nil {
				fail(err)
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", *csvPath)
		}
	}

	if *offline {
		tc := findCase(exp.PaperTestCases(*seed, *parents, *children), *caseID)
		fmt.Fprintf(os.Stderr, "comparing offline and online methods on %s ...\n", tc.ID)
		cmp, err := exp.CompareOfflineOnline(*tc, rc)
		if err != nil {
			fail(err)
		}
		fmt.Println(exp.OfflineTable(cmp))
	}

	if *tuning {
		target := findCase(exp.PaperTestCases(*seed, *parents, *children), *caseID)
		grid := exp.DefaultGrid()
		fmt.Fprintf(os.Stderr, "sweeping %d configurations on %s ...\n", grid.Size(), target.ID)
		points, err := exp.TuneSweep(*target, rc, grid)
		if err != nil {
			fail(err)
		}
		fmt.Println(exp.TuningTable(points, *topK))
	}
}

// findCase resolves a -case flag or exits with the available IDs.
func findCase(cases []exp.TestCase, id string) *exp.TestCase {
	for i := range cases {
		if cases[i].ID == id {
			return &cases[i]
		}
	}
	fmt.Fprintf(os.Stderr, "experiments: unknown case %q; available:\n", id)
	for _, c := range cases {
		fmt.Fprintf(os.Stderr, "  %s\n", c.ID)
	}
	os.Exit(2)
	return nil
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
	os.Exit(1)
}
