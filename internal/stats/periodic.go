package stats

import (
	"cmp"
	"math"
	"slices"
)

// The paper's first headline finding (§1, §5.2) is that MSS requests are
// periodic with one-day and one-week periods, driven by human read
// activity. This file provides the two standard tools to establish that
// from an hourly activity series: the sample autocorrelation function and a
// discrete-Fourier periodogram, plus a peak finder that reports dominant
// periods.

// Autocorrelation returns the sample autocorrelation of series at lags
// 0..maxLag. The series is mean-centred; lag 0 is always 1 (unless the
// series is constant, in which case all lags are 0).
func Autocorrelation(series []float64, maxLag int) []float64 {
	n := len(series)
	if maxLag >= n {
		maxLag = n - 1
	}
	if maxLag < 0 {
		return nil
	}
	mean := 0.0
	for _, v := range series {
		mean += v
	}
	mean /= float64(n)
	var denom float64
	for _, v := range series {
		d := v - mean
		denom += d * d
	}
	ac := make([]float64, maxLag+1)
	if denom == 0 {
		return ac
	}
	for lag := 0; lag <= maxLag; lag++ {
		var num float64
		for i := 0; i+lag < n; i++ {
			num += (series[i] - mean) * (series[i+lag] - mean)
		}
		ac[lag] = num / denom
	}
	return ac
}

// PeriodogramPoint is the spectral power at one period (in samples).
type PeriodogramPoint struct {
	Period float64 // in sample units (e.g. hours)
	Power  float64
}

// Periodogram computes the discrete Fourier periodogram of the
// mean-centred series at frequencies k/n for k = 1..n/2, returning points
// sorted by period ascending. The transform is a mixed-radix FFT costing
// O(n·Σp) for the prime factors p of n, with scratch of at most three
// complex128 slices of length n, released on return.
func Periodogram(series []float64) []PeriodogramPoint {
	n := len(series)
	if n < 4 {
		return nil
	}
	mean := 0.0
	for _, v := range series {
		mean += v
	}
	mean /= float64(n)
	x := centredDFT(series, mean)
	pts := make([]PeriodogramPoint, 0, n/2)
	for k := n / 2; k >= 1; k-- {
		re, im := real(x[k]), imag(x[k])
		power := (re*re + im*im) / float64(n)
		pts = append(pts, PeriodogramPoint{Period: float64(n) / float64(k), Power: power})
	}
	return pts
}

// Detrend subtracts the least-squares line from the series, returning a
// new slice. The NCAR read stream grows steadily over the two years
// (Figure 6); without detrending that ramp dominates the periodogram and
// buries the weekly peak.
func Detrend(series []float64) []float64 {
	n := len(series)
	if n < 2 {
		return append([]float64(nil), series...)
	}
	var sumX, sumY, sumXY, sumXX float64
	for i, v := range series {
		x := float64(i)
		sumX += x
		sumY += v
		sumXY += x * v
		sumXX += x * x
	}
	fn := float64(n)
	denom := fn*sumXX - sumX*sumX
	slope := 0.0
	if denom != 0 {
		slope = (fn*sumXY - sumX*sumY) / denom
	}
	intercept := (sumY - slope*sumX) / fn
	out := make([]float64, n)
	for i, v := range series {
		out[i] = v - (intercept + slope*float64(i))
	}
	return out
}

// DominantPeriods returns up to max periods (in sample units) ranked by
// spectral power, collapsing peaks closer than tol (relative) to a stronger
// peak; equal powers rank the shorter period first. The series is
// detrended first and periods longer than a quarter of the series (trend
// remnants, not cycles) are discarded. A series with no signal beyond
// rounding after detrending (all zero, constant, or a straight line)
// returns no periods. For the NCAR hourly series this returns 24 and 168
// at the top.
func DominantPeriods(series []float64, max int, tol float64) []float64 {
	d := Detrend(series)
	if signalFree(series, d) {
		return nil
	}
	pts := Periodogram(d)
	if len(pts) == 0 {
		return nil
	}
	cutoff := float64(len(series)) / 4
	filtered := pts[:0]
	for _, p := range pts {
		if p.Period <= cutoff {
			filtered = append(filtered, p)
		}
	}
	pts = filtered
	slices.SortFunc(pts, func(a, b PeriodogramPoint) int {
		if c := cmp.Compare(b.Power, a.Power); c != 0 {
			return c
		}
		return cmp.Compare(a.Period, b.Period)
	})
	var out []float64
	for _, p := range pts {
		if len(out) >= max {
			break
		}
		dup := false
		for _, q := range out {
			if math.Abs(p.Period-q)/q < tol {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, p.Period)
		}
	}
	return out
}

// signalFree reports whether the detrended series d carries no more
// energy than rounding the input series leaves behind: Σd² at most
// n·(1e-9·max|v|)². Its periodogram would rank rounding noise.
func signalFree(series, d []float64) bool {
	var peak, energy float64
	for i, v := range series {
		peak = math.Max(peak, math.Abs(v))
		energy += d[i] * d[i]
	}
	floor := 1e-9 * peak
	return energy <= float64(len(series))*floor*floor
}

// AutocorrelationPeaks finds local maxima of the autocorrelation function
// above threshold, skipping lag 0; returns lags in ascending order. A
// daily-periodic hourly series peaks at 24, 48, ...; weekly at 168.
func AutocorrelationPeaks(ac []float64, threshold float64) []int {
	var peaks []int
	for lag := 2; lag < len(ac)-1; lag++ {
		if ac[lag] >= threshold && ac[lag] > ac[lag-1] && ac[lag] >= ac[lag+1] {
			peaks = append(peaks, lag)
		}
	}
	return peaks
}
