package exp

import (
	"fmt"
	"sort"
	"strings"

	"adaptivelink/internal/adaptive"
	"adaptivelink/internal/metrics"
)

// Grid is the parameter space explored by the §4.2 tuning sweep. Each
// axis lists candidate values; the sweep takes the cross product.
type Grid struct {
	DeltaAdapt    []int
	W             []int
	ThetaOut      []float64
	ThetaCurPert  []float64
	ThetaPastPert []int
}

// DefaultGrid brackets the paper's best settings (§4.2): δadapt and W
// around 100, θout around 0.05, θcurpert around 2/W, θpastpert in 2–5.
func DefaultGrid() Grid {
	return Grid{
		DeltaAdapt:    []int{50, 100, 200},
		W:             []int{50, 100},
		ThetaOut:      []float64{0.01, 0.05, 0.1},
		ThetaCurPert:  []float64{0.01, 0.02, 0.05},
		ThetaPastPert: []int{2, 3, 5},
	}
}

// Size returns the number of grid points.
func (g Grid) Size() int {
	return len(g.DeltaAdapt) * len(g.W) * len(g.ThetaOut) * len(g.ThetaCurPert) * len(g.ThetaPastPert)
}

// Points expands the grid into parameter sets.
func (g Grid) Points() []adaptive.Params {
	var out []adaptive.Params
	for _, da := range g.DeltaAdapt {
		for _, w := range g.W {
			for _, to := range g.ThetaOut {
				for _, tc := range g.ThetaCurPert {
					for _, tp := range g.ThetaPastPert {
						out = append(out, adaptive.Params{
							W: w, DeltaAdapt: da, ThetaOut: to,
							ThetaCurPert: tc, ThetaPastPert: tp,
						})
					}
				}
			}
		}
	}
	return out
}

// TuningPoint is one sweep sample: a parameter set and its outcome.
type TuningPoint struct {
	Params   adaptive.Params
	GainCost metrics.GainCost
	RAbs     int
}

// TuneSweep runs a test case under every parameter set of the grid and
// returns the points sorted by decreasing efficiency. This reproduces
// the empirical exploration of §4.2 ("the results presented refer to the
// best possible configuration for each test case"). The dataset and the
// two baselines depend on the case and rc.Join only, so they are
// computed once; each point is one adaptive run.
func TuneSweep(tc TestCase, rc RunConfig, grid Grid) ([]TuningPoint, error) {
	points := grid.Points()
	if len(points) == 0 {
		return nil, fmt.Errorf("exp: empty tuning grid")
	}
	b, err := runBaselines(tc, rc.Join)
	if err != nil {
		return nil, err
	}
	out := make([]TuningPoint, 0, len(points))
	for _, p := range points {
		run := rc
		run.Params = p
		run.Trace = false
		res, err := b.adaptive(run)
		if err != nil {
			return out, fmt.Errorf("exp: sweep point %+v: %w", p, err)
		}
		out = append(out, TuningPoint{Params: p, GainCost: res.GainCost, RAbs: res.RAbs})
	}
	sort.SliceStable(out, func(i, j int) bool {
		return out[i].GainCost.Efficiency > out[j].GainCost.Efficiency
	})
	return out, nil
}

// TuningTable renders the top-k sweep points.
func TuningTable(points []TuningPoint, k int) string {
	if k > len(points) {
		k = len(points)
	}
	var b strings.Builder
	b.WriteString("§4.2 tuning sweep — best configurations by efficiency\n")
	fmt.Fprintf(&b, "%6s %6s %8s %10s %8s %8s %8s %8s\n",
		"δadapt", "W", "θout", "θcurpert", "θpast", "g_rel", "c_rel", "e")
	for _, p := range points[:k] {
		fmt.Fprintf(&b, "%6d %6d %8.3f %10.3f %8d %8.3f %8.3f %8.2f\n",
			p.Params.DeltaAdapt, p.Params.W, p.Params.ThetaOut,
			p.Params.ThetaCurPert, p.Params.ThetaPastPert,
			p.GainCost.Grel, p.GainCost.Crel, p.GainCost.Efficiency)
	}
	return b.String()
}
