package cli

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"

	"adaptivelink"
)

// RunAdaptiveJoin implements cmd/adaptivejoin. It returns the process
// exit code.
func RunAdaptiveJoin(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("adaptivejoin", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		leftPath  = fs.String("left", "", "left (parent) CSV path")
		rightPath = fs.String("right", "", "right (child) CSV path")
		leftKey   = fs.String("left-key", "location", "left join-key column")
		rightKey  = fs.String("right-key", "location", "right join-key column")
		strategy  = fs.String("strategy", "adaptive", "adaptive, exact or approximate")
		theta     = fs.Float64("theta", 0.75, "similarity threshold θsim")
		q         = fs.Int("q", 3, "q-gram width")
		budget    = fs.Float64("budget", 0, "cost budget in all-exact-step units (0 = unlimited); composes with -parallel")
		window    = fs.Int("window", 0, "sliding-window retention per side (0 = retain everything); composes with -parallel")
		parallel  = fs.Int("parallel", 1, "shard count (1 = sequential engine with stable output order, 0 = one per CPU; >1 delivers rows in nondeterministic order)")
		normalise = fs.Bool("normalize", false, "normalise join keys (case, accents, punctuation, whitespace)")
		trace     = fs.Bool("trace", false, "print control-loop activations to stderr")
		explain   = fs.Bool("explain", false, "print decision explanations (expected hits, tail probability, reason) with each activation; implies -trace")
		stats     = fs.Bool("stats", true, "print execution statistics to stderr")
		jsonOut   = fs.Bool("json", false, "write one JSON document (matches + stats + activations) to stdout instead of CSV, so CLI and service results are diffable in scripts; implies -trace recording")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *leftPath == "" || *rightPath == "" {
		fmt.Fprintln(stderr, "adaptivejoin: -left and -right are required")
		fs.Usage()
		return 2
	}

	opts := adaptivelink.Options{Q: *q, Theta: *theta, CostBudget: *budget, RetainWindow: *window, TraceActivations: *trace || *explain || *jsonOut, Parallelism: *parallel}
	switch *strategy {
	case "adaptive":
		opts.Strategy = adaptivelink.Adaptive
	case "exact":
		opts.Strategy = adaptivelink.ExactOnly
	case "approximate":
		opts.Strategy = adaptivelink.ApproximateOnly
	default:
		fmt.Fprintf(stderr, "adaptivejoin: unknown strategy %q\n", *strategy)
		return 2
	}

	left, err := loadSource(*leftPath, *leftKey, *normalise)
	if err != nil {
		fmt.Fprintf(stderr, "adaptivejoin: %v\n", err)
		return 1
	}
	right, err := loadSource(*rightPath, *rightKey, *normalise)
	if err != nil {
		fmt.Fprintf(stderr, "adaptivejoin: %v\n", err)
		return 1
	}

	j, err := adaptivelink.New(left, right, opts)
	if err != nil {
		fmt.Fprintf(stderr, "adaptivejoin: %v\n", err)
		return 1
	}
	matches, err := j.All()
	if err != nil {
		fmt.Fprintf(stderr, "adaptivejoin: %v\n", err)
		return 1
	}

	if *jsonOut {
		if err := writeJoinJSON(stdout, j, matches); err != nil {
			fmt.Fprintf(stderr, "adaptivejoin: %v\n", err)
			return 1
		}
		return 0
	}

	bw := bufio.NewWriter(stdout)
	out := csv.NewWriter(bw)
	if err := out.Write([]string{"left_key", "right_key", "similarity", "exact"}); err != nil {
		fmt.Fprintf(stderr, "adaptivejoin: %v\n", err)
		return 1
	}
	for _, m := range matches {
		rec := []string{
			m.Left.Key, m.Right.Key,
			strconv.FormatFloat(m.Similarity, 'f', 4, 64),
			strconv.FormatBool(m.Exact),
		}
		if err := out.Write(rec); err != nil {
			fmt.Fprintf(stderr, "adaptivejoin: %v\n", err)
			return 1
		}
	}
	out.Flush()
	if err := out.Error(); err != nil {
		fmt.Fprintf(stderr, "adaptivejoin: %v\n", err)
		return 1
	}
	if err := bw.Flush(); err != nil {
		fmt.Fprintf(stderr, "adaptivejoin: %v\n", err)
		return 1
	}

	if *stats {
		st := j.Stats()
		fmt.Fprintf(stderr, "matches: %d (%d exact, %d approximate)\n",
			st.Matches, st.ExactMatches, st.ApproxMatches)
		fmt.Fprintf(stderr, "steps: %d (left %d, right %d), switches: %d, catch-up tuples: %d\n",
			st.Steps, st.LeftRead, st.RightRead, st.Switches, st.CatchUpTuples)
		if st.Parallelism > 1 {
			fmt.Fprintf(stderr, "parallelism: %d shards, %d storing steps, %d probe-only offers\n",
				st.Parallelism, st.ShardSteps, st.ProbeOffers)
		}
		if *window > 0 {
			fmt.Fprintf(stderr, "window: %d tuples retained per side, %d evicted, %d index entries dropped\n",
				*window, st.TuplesEvicted, st.IndexEntriesDropped)
		}
		if *budget > 0 {
			fmt.Fprintf(stderr, "budget: %.0f units, modelled spend %.0f\n", *budget, st.BudgetSpend)
		}
		names := make([]string, 0, len(st.StepsInState))
		for name := range st.StepsInState {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if st.StepsInState[name] > 0 {
				fmt.Fprintf(stderr, "  %-8s %d steps\n", name, st.StepsInState[name])
			}
		}
		fmt.Fprintf(stderr, "modelled cost (all-exact step = 1): %.0f\n", st.ModelledCost)
	}
	if *trace || *explain {
		for _, a := range j.Activations() {
			mark := " "
			if a.Sigma {
				mark = "!"
			}
			fmt.Fprintf(stderr, "step %6d %s observed=%6d tail=%.4f %s -> %s (caught up %d)\n",
				a.Step, mark, a.Observed, a.Tail, a.From, a.To, a.CaughtUp)
			if *explain {
				fmt.Fprintf(stderr, "            expected=%.1f reason=%s\n", a.Expected, a.Reason)
			}
		}
	}
	return 0
}

// joinMatchJSON is one matched pair in -json output.
type joinMatchJSON struct {
	LeftKey    string  `json:"left_key"`
	RightKey   string  `json:"right_key"`
	Similarity float64 `json:"similarity"`
	Exact      bool    `json:"exact"`
	Step       int     `json:"step"`
}

// joinResultJSON is the -json document: machine-readable matches,
// Stats and the control-loop trace, diffable against /v1/stats and
// /v1/link responses from adaptivelinkd.
type joinResultJSON struct {
	Matches     []joinMatchJSON           `json:"matches"`
	Stats       adaptivelink.Stats        `json:"stats"`
	Activations []adaptivelink.Activation `json:"activations"`
}

func writeJoinJSON(w io.Writer, j *adaptivelink.Join, matches []adaptivelink.Match) error {
	doc := joinResultJSON{
		Matches:     make([]joinMatchJSON, len(matches)),
		Stats:       j.Stats(),
		Activations: j.Activations(),
	}
	for i, m := range matches {
		doc.Matches[i] = joinMatchJSON{
			LeftKey: m.Left.Key, RightKey: m.Right.Key,
			Similarity: m.Similarity, Exact: m.Exact, Step: m.Step,
		}
	}
	if doc.Activations == nil {
		doc.Activations = []adaptivelink.Activation{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// loadSource reads a whole CSV into memory and returns a fresh source
// over it, optionally normalising the join keys.
func loadSource(path, key string, normalise bool) (adaptivelink.Source, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	_, factory, err := adaptivelink.LoadRelationCSV(bufio.NewReader(f), path, key)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	src := factory()
	if normalise {
		src = adaptivelink.NormalizeSource(src)
	}
	return src, nil
}
