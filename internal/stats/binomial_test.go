package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBinomialPMFKnownValues(t *testing.T) {
	cases := []struct {
		k, n int
		p    float64
		want float64
	}{
		{0, 1, 0.5, 0.5},
		{1, 1, 0.5, 0.5},
		{2, 4, 0.5, 0.375},
		{0, 10, 0.1, math.Pow(0.9, 10)},
		{10, 10, 0.1, math.Pow(0.1, 10)},
		{-1, 5, 0.5, 0},
		{6, 5, 0.5, 0},
		{0, 3, 0, 1},
		{1, 3, 0, 0},
		{3, 3, 1, 1},
		{2, 3, 1, 0},
	}
	for _, c := range cases {
		if got := BinomialPMF(c.k, c.n, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("PMF(%d,%d,%v) = %v, want %v", c.k, c.n, c.p, got, c.want)
		}
	}
}

func TestBinomialCDFSmallExact(t *testing.T) {
	// bin(4, 0.5): CDF = 1/16, 5/16, 11/16, 15/16, 1.
	want := []float64{1.0 / 16, 5.0 / 16, 11.0 / 16, 15.0 / 16, 1}
	for k, w := range want {
		if got := BinomialCDF(k, 4, 0.5); math.Abs(got-w) > 1e-12 {
			t.Errorf("CDF(%d,4,0.5) = %v, want %v", k, got, w)
		}
	}
}

func TestBinomialCDFEdgeCases(t *testing.T) {
	if got := BinomialCDF(-1, 10, 0.3); got != 0 {
		t.Errorf("CDF(k<0) = %v, want 0", got)
	}
	if got := BinomialCDF(10, 10, 0.3); got != 1 {
		t.Errorf("CDF(k=n) = %v, want 1", got)
	}
	if got := BinomialCDF(12, 10, 0.3); got != 1 {
		t.Errorf("CDF(k>n) = %v, want 1", got)
	}
	if got := BinomialCDF(0, 10, 0); got != 1 {
		t.Errorf("CDF(p=0) = %v, want 1", got)
	}
	if got := BinomialCDF(5, 10, 1); got != 0 {
		t.Errorf("CDF(k<n, p=1) = %v, want 0", got)
	}
	if got := BinomialCDF(0, 0, 0.5); got != 1 {
		t.Errorf("CDF(n=0,k=0) = %v, want 1", got)
	}
}

func TestBinomialCDFPanicsOnBadArgs(t *testing.T) {
	for _, fn := range []func(){
		func() { BinomialCDF(1, -1, 0.5) },
		func() { BinomialCDF(1, 5, -0.1) },
		func() { BinomialCDF(1, 5, 1.1) },
		func() { BinomialCDF(1, 5, math.NaN()) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for invalid arguments")
				}
			}()
			fn()
		}()
	}
}

// Cross-validate the beta-function path against direct summation around
// the n=64 implementation switch and well above it.
func TestBinomialCDFBetaAgreesWithDirect(t *testing.T) {
	for _, n := range []int{65, 100, 500, 2000} {
		for _, p := range []float64{0.01, 0.1, 0.5, 0.9, 0.99} {
			for _, kFrac := range []float64{0, 0.25, 0.5, 0.75, 1} {
				k := int(kFrac * float64(n-1))
				direct := binomialCDFDirect(k, n, p)
				beta := RegIncBeta(float64(n-k), float64(k+1), 1-p)
				if math.Abs(direct-beta) > 1e-9 {
					t.Errorf("n=%d p=%v k=%d: direct %v vs beta %v", n, p, k, direct, beta)
				}
			}
		}
	}
}

func TestBinomialCDFLargeNNormalApprox(t *testing.T) {
	// For n=8082, p=0.5 the CDF at the mean must be ~0.5.
	got := BinomialCDF(8082/2, 8082, 0.5)
	if math.Abs(got-0.5) > 0.01 {
		t.Errorf("CDF at mean = %v, want ~0.5", got)
	}
	// Far below the mean the tail must be tiny: mean - 10 sigma.
	sigma := math.Sqrt(8082 * 0.5 * 0.5)
	k := int(8082*0.5 - 10*sigma)
	if got := BinomialCDF(k, 8082, 0.5); got > 1e-10 {
		t.Errorf("CDF 10 sigma below mean = %v, want ~0", got)
	}
}

// Property: CDF is monotone non-decreasing in k and bounded in [0,1].
func TestBinomialCDFMonotoneProperty(t *testing.T) {
	f := func(nRaw uint16, pRaw uint16) bool {
		n := int(nRaw%300) + 1
		p := float64(pRaw%1000) / 1000
		prev := 0.0
		for k := 0; k <= n; k++ {
			c := BinomialCDF(k, n, p)
			if c < prev-1e-12 || c < 0 || c > 1+1e-12 {
				return false
			}
			prev = c
		}
		return math.Abs(prev-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: CDF(k) equals the cumulative sum of PMF values.
func TestCDFMatchesPMFSumProperty(t *testing.T) {
	f := func(nRaw, pRaw uint16) bool {
		n := int(nRaw%150) + 1
		p := float64(pRaw%1000) / 1000
		sum := 0.0
		for k := 0; k <= n; k++ {
			sum += BinomialPMF(k, n, p)
			if math.Abs(BinomialCDF(k, n, p)-math.Min(sum, 1)) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestRegIncBetaKnownValues(t *testing.T) {
	// I_x(1,1) = x.
	for _, x := range []float64{0, 0.25, 0.5, 0.75, 1} {
		if got := RegIncBeta(1, 1, x); math.Abs(got-x) > 1e-12 {
			t.Errorf("I_%v(1,1) = %v, want %v", x, got, x)
		}
	}
	// I_x(2,2) = 3x^2 - 2x^3.
	for _, x := range []float64{0.1, 0.5, 0.9} {
		want := 3*x*x - 2*x*x*x
		if got := RegIncBeta(2, 2, x); math.Abs(got-want) > 1e-12 {
			t.Errorf("I_%v(2,2) = %v, want %v", x, got, want)
		}
	}
	// Symmetry: I_x(a,b) = 1 - I_{1-x}(b,a).
	if got := RegIncBeta(3.5, 1.25, 0.3) + RegIncBeta(1.25, 3.5, 0.7); math.Abs(got-1) > 1e-12 {
		t.Errorf("symmetry violated: sum = %v", got)
	}
}

func TestRegIncBetaPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { RegIncBeta(0, 1, 0.5) },
		func() { RegIncBeta(1, -1, 0.5) },
		func() { RegIncBeta(1, 1, -0.1) },
		func() { RegIncBeta(1, 1, 1.1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}
