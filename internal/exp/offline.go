package exp

import (
	"fmt"
	"strings"
	"time"

	"adaptivelink/internal/blocking"
)

// OfflineResult is one method's outcome in the offline-vs-online
// comparison.
type OfflineResult struct {
	Method string
	// Pairs is the number of verified matched pairs.
	Pairs int
	// Comparisons counts similarity verifications (offline methods) or
	// engine steps (online methods) — each method's unit of work.
	Comparisons int
	// Recall is Pairs relative to the all-approximate join's result
	// size, the completeness ceiling shared by every method here.
	Recall float64
	// Wall is the measured wall-clock time.
	Wall time.Duration
}

// CompareOfflineOnline contrasts the offline linkage pipelines of §1
// (which require the tables in advance: standard blocking and the
// sorted neighbourhood method) against the online operators on one test
// case. It quantifies the paper's motivating claim: offline pipelines
// get completeness cheaply but need pre-processing; the adaptive online
// join approaches their completeness while reading the inputs once, as
// streams. The online rows are RunCase's approximate baseline and
// adaptive run; a windowed join is refused, since the offline methods
// see every tuple.
func CompareOfflineOnline(tc TestCase, rc RunConfig) ([]OfflineResult, error) {
	if rc.Join.RetainWindow > 0 {
		return nil, fmt.Errorf("exp: offline comparison with RetainWindow %d: the offline methods have no window", rc.Join.RetainWindow)
	}
	b, err := runBaselines(tc, rc.Join)
	if err != nil {
		return nil, err
	}
	online, err := b.adaptive(rc)
	if err != nil {
		return nil, err
	}
	// Ceiling: the all-approximate online join (same θ and measure as
	// every other method).
	ceiling := online.RApx
	out := []OfflineResult{
		{Method: "online/sshjoin", Pairs: ceiling, Comparisons: online.Steps, Recall: 1, Wall: online.WallApprox},
		{Method: "online/adaptive", Pairs: online.RAbs, Comparisons: online.AdaptiveStats.Steps,
			Recall: recall(online.RAbs, ceiling), Wall: online.WallAdaptive},
	}

	// Offline: token blocking.
	{
		start := time.Now()
		res, err := blocking.Link(rc.Join, b.ds.Parent, b.ds.Child, blocking.TokenBlocker())
		if err != nil {
			return nil, err
		}
		out = append(out, OfflineResult{
			Method: "offline/token-blocking", Pairs: len(res.Pairs),
			Comparisons: res.Comparisons, Recall: recall(len(res.Pairs), ceiling), Wall: time.Since(start),
		})
	}

	// Offline: sorted neighbourhood, window 10.
	{
		start := time.Now()
		res, err := blocking.SortedNeighborhood(rc.Join, b.ds.Parent, b.ds.Child, 10, nil)
		if err != nil {
			return nil, err
		}
		out = append(out, OfflineResult{
			Method: "offline/snm-w10", Pairs: len(res.Pairs),
			Comparisons: res.Comparisons, Recall: recall(len(res.Pairs), ceiling), Wall: time.Since(start),
		})
	}
	return out, nil
}

func recall(pairs, ceiling int) float64 {
	if ceiling == 0 {
		return 1
	}
	return float64(pairs) / float64(ceiling)
}

// OfflineTable renders the comparison.
func OfflineTable(results []OfflineResult) string {
	var b strings.Builder
	b.WriteString("Offline (pre-processing) vs online (streaming) linkage\n")
	fmt.Fprintf(&b, "%-26s %8s %8s %12s %12s\n", "method", "pairs", "recall", "work units", "wall time")
	for _, r := range results {
		fmt.Fprintf(&b, "%-26s %8d %7.1f%% %12d %12v\n",
			r.Method, r.Pairs, 100*r.Recall, r.Comparisons, r.Wall.Round(time.Millisecond))
	}
	return b.String()
}
