// Package stats supplies the statistical machinery behind the adaptive
// controller: the binomial tail test that detects result-size outliers
// (§3.2 of the paper), sliding-window event counters used by the µ and π
// perturbation predicates (§3.5), and small online-aggregation helpers
// used by the cost-weight calibration.
package stats

import (
	"fmt"
	"math"
)

// BinomialCDF returns P(X <= k) for X ~ bin(n, p).
//
// The assessor evaluates Pₙ,ₚ₍ₙ₎(O̅ₙ ≤ O) at every activation with n up
// to the child-table cardinality, so the implementation must be both
// accurate and O(1)-ish: for small n it sums the probability mass
// directly in log space; for large n it evaluates the regularised
// incomplete beta function via Lentz's continued fraction, using the
// identity P(X <= k) = I_{1-p}(n-k, k+1).
func BinomialCDF(k, n int, p float64) float64 {
	switch {
	case n < 0:
		panic(fmt.Sprintf("stats: BinomialCDF with negative n=%d", n))
	case p < 0 || p > 1 || math.IsNaN(p):
		panic(fmt.Sprintf("stats: BinomialCDF with invalid p=%v", p))
	case k < 0:
		return 0
	case k >= n:
		return 1
	case p == 0:
		return 1 // k >= 0 covers all mass
	case p == 1:
		return 0 // k < n misses the single atom at n
	}
	if n <= 64 {
		return binomialCDFDirect(k, n, p)
	}
	// P(X <= k) = I_{1-p}(n-k, k+1)
	return RegIncBeta(float64(n-k), float64(k+1), 1-p)
}

// binomialCDFDirect sums pmf terms in log space for numerical stability.
func binomialCDFDirect(k, n int, p float64) float64 {
	lp, lq := math.Log(p), math.Log1p(-p)
	sum := 0.0
	for i := 0; i <= k; i++ {
		logTerm := lchoose(n, i) + float64(i)*lp + float64(n-i)*lq
		sum += math.Exp(logTerm)
	}
	if sum > 1 {
		sum = 1
	}
	return sum
}

// BinomialPMF returns P(X == k) for X ~ bin(n, p).
func BinomialPMF(k, n int, p float64) float64 {
	if k < 0 || k > n {
		return 0
	}
	if p == 0 {
		if k == 0 {
			return 1
		}
		return 0
	}
	if p == 1 {
		if k == n {
			return 1
		}
		return 0
	}
	return math.Exp(lchoose(n, k) + float64(k)*math.Log(p) + float64(n-k)*math.Log1p(-p))
}

// lchoose returns log(n choose k).
func lchoose(n, k int) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	lg1, _ := math.Lgamma(float64(n + 1))
	lg2, _ := math.Lgamma(float64(k + 1))
	lg3, _ := math.Lgamma(float64(n - k + 1))
	return lg1 - lg2 - lg3
}

// RegIncBeta computes the regularised incomplete beta function I_x(a, b)
// using the continued-fraction expansion with the symmetry transform for
// fast convergence (Numerical-Recipes-style betai).
func RegIncBeta(a, b, x float64) float64 {
	switch {
	case a <= 0 || b <= 0:
		panic(fmt.Sprintf("stats: RegIncBeta with non-positive shape a=%v b=%v", a, b))
	case x < 0 || x > 1 || math.IsNaN(x):
		panic(fmt.Sprintf("stats: RegIncBeta with x=%v outside [0,1]", x))
	case x == 0:
		return 0
	case x == 1:
		return 1
	}
	lbeta := lgamma(a+b) - lgamma(a) - lgamma(b)
	front := math.Exp(lbeta + a*math.Log(x) + b*math.Log1p(-x))
	if x < (a+1)/(a+b+2) {
		return front * betacf(a, b, x) / a
	}
	return 1 - front*betacf(b, a, 1-x)/b
}

func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

// betacf evaluates the continued fraction for the incomplete beta
// function by the modified Lentz method.
func betacf(a, b, x float64) float64 {
	const (
		maxIter = 300
		eps     = 3e-14
		fpmin   = 1e-300
	)
	qab, qap, qam := a+b, a+1, a-1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		m2 := 2 * m
		fm := float64(m)
		aa := fm * (b - fm) * x / ((qam + float64(m2)) * (a + float64(m2)))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + float64(m2)) * (qap + float64(m2)))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			return h
		}
	}
	// Non-convergence is a numerical pathology we surface loudly rather
	// than silently returning garbage to the assessor.
	panic(fmt.Sprintf("stats: betacf failed to converge for a=%v b=%v x=%v", a, b, x))
}
