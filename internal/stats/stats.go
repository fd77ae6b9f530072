// Package stats provides the small statistical toolkit the experiment
// harness needs: summary statistics, percentiles, sorted copies, speedups
// and ordinary least-squares linear fits (the paper fits lines to Allreduce
// latency vs processor count in Figure 6).
package stats

import (
	"errors"
	"math"
	"sort"
)

// Summary holds the usual descriptive statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	Median float64
	Min    float64
	Max    float64
	Stddev float64 // sample standard deviation (n-1)
	Sum    float64
}

// Summarize computes descriptive statistics. An empty sample yields a zero
// Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	for _, x := range xs {
		s.Sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = s.Sum / float64(s.N)
	var ss float64
	for _, x := range xs {
		d := x - s.Mean
		ss += d * d
	}
	if s.N > 1 {
		s.Stddev = math.Sqrt(ss / float64(s.N-1))
	}
	s.Median = Percentile(xs, 50)
	return s
}

// Percentile returns the p-th percentile (0..100) using linear
// interpolation between closest ranks. It copies and sorts the input.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return percentileSorted(sorted, p)
}

func percentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Fit is an ordinary least-squares line y = Slope*x + Intercept.
type Fit struct {
	Slope     float64
	Intercept float64
	R2        float64 // coefficient of determination
}

// ErrDegenerate is returned when a fit is requested on insufficient or
// constant-x data.
var ErrDegenerate = errors.New("stats: degenerate input for linear fit")

// LinearFit fits y = a*x + b by least squares.
func LinearFit(xs, ys []float64) (Fit, error) {
	if len(xs) != len(ys) || len(xs) < 2 {
		return Fit{}, ErrDegenerate
	}
	n := float64(len(xs))
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var sxx, sxy, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return Fit{}, ErrDegenerate
	}
	slope := sxy / sxx
	f := Fit{Slope: slope, Intercept: my - slope*mx}
	if syy > 0 {
		f.R2 = (sxy * sxy) / (sxx * syy)
	} else {
		f.R2 = 1 // all ys equal and the fit is exact
	}
	return f, nil
}

// Eval returns the fitted value at x.
func (f Fit) Eval(x float64) float64 { return f.Slope*x + f.Intercept }

// Speedup returns (base/improved - 1) expressed as a percentage: the form
// the paper uses for its "154% speedup" claim. Returns NaN if improved is 0.
func Speedup(base, improved float64) float64 {
	if improved == 0 {
		return math.NaN()
	}
	return (base/improved - 1) * 100
}

// SortedCopy returns an ascending copy of xs (Figure 4 plots sorted
// Allreduce times).
func SortedCopy(xs []float64) []float64 {
	out := make([]float64, len(xs))
	copy(out, xs)
	sort.Float64s(out)
	return out
}
