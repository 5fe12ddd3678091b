package datagen

import "fmt"

// Pattern is one of the four perturbation placements of Fig. 5.
type Pattern int

const (
	// Uniform spreads variants evenly across the whole input (Fig. 5a).
	Uniform Pattern = iota
	// InterleavedLow alternates low-intensity perturbation regions with
	// unperturbed stretches (Fig. 5b).
	InterleavedLow
	// FewHighIntensity places a small number of well-separated
	// high-intensity regions (Fig. 5c).
	FewHighIntensity
	// ManyHighIntensity places many short high-intensity regions
	// (Fig. 5d); with the total variant rate fixed, more regions means
	// shorter ones.
	ManyHighIntensity
)

// AllPatterns lists the patterns in Fig. 5 order.
var AllPatterns = []Pattern{Uniform, InterleavedLow, FewHighIntensity, ManyHighIntensity}

// patternNames is the one table of pattern names: String reads it and
// ParsePattern inverts it.
var patternNames = [...]string{
	Uniform:           "uniform",
	InterleavedLow:    "interleaved-low",
	FewHighIntensity:  "few-high",
	ManyHighIntensity: "many-high",
}

// String names the pattern.
func (p Pattern) String() string {
	if p >= 0 && int(p) < len(patternNames) {
		return patternNames[p]
	}
	return fmt.Sprintf("Pattern(%d)", int(p))
}

// ParsePattern is String's inverse over AllPatterns: it returns the
// pattern String names, and ok false for any other name.
func ParsePattern(name string) (p Pattern, ok bool) {
	for _, p = range AllPatterns {
		if p.String() == name {
			return p, true
		}
	}
	return 0, false
}

// Region is a contiguous stretch of input positions [Start, End) whose
// tuples are perturbed with probability Intensity.
type Region struct {
	Start     int
	End       int
	Intensity float64
}

// Len returns the region length.
func (r Region) Len() int { return r.End - r.Start }

// Contains reports whether position i falls inside the region.
func (r Region) Contains(i int) bool { return i >= r.Start && i < r.End }

// Regions lays out the perturbation regions of a pattern over an input
// of n tuples such that the expected overall variant proportion equals
// rate. The paper controls (i) region intensity, (ii) region length and
// (iii) inter-region spacing (§4.1); the layouts below fix those knobs
// per pattern:
//
//	Uniform:            one region covering everything, intensity = rate
//	InterleavedLow:     8 regions covering half the input (alternating
//	                    with equal unperturbed gaps), intensity = 2·rate
//	FewHighIntensity:   3 regions at intensity 0.9
//	ManyHighIntensity:  12 regions at intensity 0.9
func Regions(p Pattern, n int, rate float64) ([]Region, error) {
	if n <= 0 {
		return nil, fmt.Errorf("datagen: input size %d must be positive", n)
	}
	if rate < 0 || rate > 1 {
		return nil, fmt.Errorf("datagen: variant rate %v outside [0,1]", rate)
	}
	if rate == 0 {
		return nil, nil
	}
	switch p {
	case Uniform:
		return []Region{{Start: 0, End: n, Intensity: rate}}, nil
	case InterleavedLow:
		return spread(n, 8, 2*rate)
	case FewHighIntensity:
		return packed(n, 3, 0.9, rate)
	case ManyHighIntensity:
		return packed(n, 12, 0.9, rate)
	default:
		return nil, fmt.Errorf("datagen: unknown pattern %d", int(p))
	}
}

// spread lays out k regions of equal length alternating with equal
// gaps, covering half the input, each at the given intensity.
func spread(n, k int, intensity float64) ([]Region, error) {
	if intensity > 1 {
		intensity = 1
	}
	if k > n {
		k = n
	}
	period := n / k
	regLen := period / 2
	if regLen < 1 {
		regLen = 1
	}
	regions := make([]Region, 0, k)
	for i := 0; i < k; i++ {
		start := i * period
		end := start + regLen
		if end > n {
			end = n
		}
		if start >= end {
			break
		}
		regions = append(regions, Region{Start: start, End: end, Intensity: intensity})
	}
	return regions, nil
}

// packed lays out k regions at a fixed high intensity, sized so the
// expected number of variants across the whole input is rate·n, and
// spaced evenly.
func packed(n, k int, intensity, rate float64) ([]Region, error) {
	total := rate * float64(n) / intensity // total perturbed positions
	regLen := int(total / float64(k))
	if regLen < 1 {
		regLen = 1
	}
	period := n / k
	if regLen > period {
		regLen = period
	}
	regions := make([]Region, 0, k)
	for i := 0; i < k; i++ {
		// Centre each region inside its period slot.
		start := i*period + (period-regLen)/2
		end := start + regLen
		if end > n {
			end = n
		}
		if start >= end {
			break
		}
		regions = append(regions, Region{Start: start, End: end, Intensity: intensity})
	}
	return regions, nil
}

// ExpectedVariants returns the expected number of variants the regions
// induce on an input of n tuples.
func ExpectedVariants(regions []Region, n int) float64 {
	total := 0.0
	for _, r := range regions {
		end := r.End
		if end > n {
			end = n
		}
		if end > r.Start {
			total += float64(end-r.Start) * r.Intensity
		}
	}
	return total
}

// Render draws an ASCII map of the regions over an input of n tuples,
// compressed to width columns — the Fig. 5 visualisation used by
// cmd/experiments. Darker characters mean higher intensity.
func Render(regions []Region, n, width int) string {
	if width < 1 || n < 1 {
		return ""
	}
	cells := make([]float64, width)
	for _, r := range regions {
		for i := r.Start; i < r.End && i < n; i++ {
			cells[i*width/n] += r.Intensity
		}
	}
	// Normalise cell sums by the positions mapped into each cell.
	counts := make([]int, width)
	for i := 0; i < n; i++ {
		counts[i*width/n]++
	}
	var b []byte
	for i, c := range cells {
		v := 0.0
		if counts[i] > 0 {
			v = c / float64(counts[i])
		}
		switch {
		case v == 0:
			b = append(b, '.')
		case v < 0.25:
			b = append(b, '-')
		case v < 0.6:
			b = append(b, '+')
		default:
			b = append(b, '#')
		}
	}
	return string(b)
}
