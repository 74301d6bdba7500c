package stats

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// synthDiurnal builds an hourly series with daily and weekly structure,
// mimicking the shape of the NCAR read stream.
func synthDiurnal(weeks int, noise float64, seed int64) []float64 {
	r := rand.New(rand.NewSource(seed))
	n := weeks * 7 * 24
	s := make([]float64, n)
	for i := range s {
		hour := i % 24
		day := (i / 24) % 7
		v := 2.0
		if hour >= 8 && hour <= 17 {
			v += 4.0
		}
		if day == 0 || day == 6 {
			v *= 0.5
		}
		s[i] = v + noise*r.NormFloat64()
	}
	return s
}

func TestAutocorrelationLagZero(t *testing.T) {
	s := synthDiurnal(4, 0.1, 1)
	ac := Autocorrelation(s, 200)
	if math.Abs(ac[0]-1) > 1e-12 {
		t.Errorf("ac[0] = %v, want 1", ac[0])
	}
}

func TestAutocorrelationConstantSeries(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = 5
	}
	ac := Autocorrelation(s, 10)
	for lag, v := range ac {
		if v != 0 {
			t.Errorf("constant series ac[%d] = %v, want 0", lag, v)
		}
	}
}

func TestAutocorrelationDailyPeak(t *testing.T) {
	s := synthDiurnal(8, 0.3, 2)
	ac := Autocorrelation(s, 24*8)
	if ac[24] < 0.5 {
		t.Errorf("ac at lag 24 = %v, want strong positive", ac[24])
	}
	if ac[168] < ac[24] {
		t.Errorf("weekly lag (%v) should be at least daily lag (%v) for weekly-structured series", ac[168], ac[24])
	}
	if ac[12] > ac[24] {
		t.Errorf("half-day lag %v should be below daily lag %v", ac[12], ac[24])
	}
}

func TestAutocorrelationClampsLag(t *testing.T) {
	s := []float64{1, 2, 3}
	ac := Autocorrelation(s, 100)
	if len(ac) != 3 {
		t.Errorf("len(ac) = %d, want 3", len(ac))
	}
	if Autocorrelation(nil, 5) != nil {
		t.Error("nil series should give nil")
	}
}

func TestPeriodogramFindsDayAndWeek(t *testing.T) {
	s := synthDiurnal(10, 0.2, 3)
	periods := DominantPeriods(s, 3, 0.1)
	foundDay, foundWeek := false, false
	for _, p := range periods {
		if math.Abs(p-24) < 1.0 {
			foundDay = true
		}
		if math.Abs(p-168) < 8.0 {
			foundWeek = true
		}
	}
	if !foundDay || !foundWeek {
		t.Errorf("dominant periods = %v, want to include ~24 and ~168", periods)
	}
}

func TestPeriodogramShortSeries(t *testing.T) {
	if Periodogram([]float64{1, 2}) != nil {
		t.Error("short series should give nil periodogram")
	}
}

func TestPeriodogramPureSine(t *testing.T) {
	n := 240
	s := make([]float64, n)
	for i := range s {
		s[i] = math.Sin(2 * math.Pi * float64(i) / 24)
	}
	pts := Periodogram(s)
	var best PeriodogramPoint
	for _, p := range pts {
		if p.Power > best.Power {
			best = p
		}
	}
	if math.Abs(best.Period-24) > 0.5 {
		t.Errorf("peak period = %v, want 24", best.Period)
	}
}

func TestAutocorrelationPeaks(t *testing.T) {
	s := synthDiurnal(8, 0.2, 4)
	ac := Autocorrelation(s, 24*7+12)
	peaks := AutocorrelationPeaks(ac, 0.3)
	has24 := false
	for _, p := range peaks {
		if p >= 22 && p <= 26 {
			has24 = true
		}
	}
	if !has24 {
		t.Errorf("peaks = %v, want one near 24", peaks)
	}
}

func TestDominantPeriodsDeduplicates(t *testing.T) {
	s := synthDiurnal(6, 0.2, 5)
	periods := DominantPeriods(s, 2, 0.2)
	if len(periods) != 2 {
		t.Fatalf("got %d periods, want 2", len(periods))
	}
	if math.Abs(periods[0]-periods[1])/periods[1] < 0.2 {
		t.Errorf("periods %v not deduplicated", periods)
	}
}

// periodogramDirect is the reference periodogram: the direct O(n²)
// DFT, one cos/sin pair per term, with points sorted by period.
func periodogramDirect(series []float64) []PeriodogramPoint {
	n := len(series)
	if n < 4 {
		return nil
	}
	mean := 0.0
	for _, v := range series {
		mean += v
	}
	mean /= float64(n)
	pts := make([]PeriodogramPoint, 0, n/2)
	for k := 1; k <= n/2; k++ {
		var re, im float64
		w := 2 * math.Pi * float64(k) / float64(n)
		for t, v := range series {
			c := v - mean
			re += c * math.Cos(w*float64(t))
			im -= c * math.Sin(w*float64(t))
		}
		power := (re*re + im*im) / float64(n)
		pts = append(pts, PeriodogramPoint{Period: float64(n) / float64(k), Power: power})
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].Period < pts[j].Period })
	return pts
}

// checkAgainstDirect compares Periodogram with the reference: periods
// bit-identical and in the same order, powers within 1e-9 of the
// series' largest power. By Parseval the largest power is at least the
// mean-centred energy over n, which is the scale used instead when
// rounding has wiped out the spectrum itself (a constant series whose
// centred values are a uniform rounding residue).
func checkAgainstDirect(t *testing.T, series []float64) {
	t.Helper()
	got, want := Periodogram(series), periodogramDirect(series)
	if len(got) != len(want) {
		t.Fatalf("n=%d: %d points, want %d", len(series), len(got), len(want))
	}
	mean := 0.0
	for _, v := range series {
		mean += v
	}
	mean /= float64(len(series))
	peak := 0.0
	for _, v := range series {
		peak += (v - mean) * (v - mean)
	}
	peak /= float64(len(series))
	for _, p := range want {
		peak = math.Max(peak, p.Power)
	}
	for i := range want {
		if got[i].Period != want[i].Period {
			t.Fatalf("n=%d: point %d period %v, want %v", len(series), i, got[i].Period, want[i].Period)
		}
		if d := math.Abs(got[i].Power - want[i].Power); d > 1e-9*peak {
			t.Fatalf("n=%d: period %v power %v, want %v (diff %.3g of peak %.3g)",
				len(series), want[i].Period, got[i].Power, want[i].Power, d/peak, peak)
		}
	}
}

// TestPeriodogramMatchesDirectDFT covers smooth, mixed-radix and prime
// lengths, including both the 731-day (17,544) and 90-day (2,160)
// hourly series lengths and the 17,543 = 53·331 a trace one hour short
// gives.
func TestPeriodogramMatchesDirectDFT(t *testing.T) {
	for _, n := range []int{4, 5, 7, 8, 97, 1024, 2160, 2161, 4099, 17543, 17544} {
		if testing.Short() && n > 5000 {
			continue
		}
		s := synthDiurnal(n/168+1, 0.5, int64(n))[:n]
		checkAgainstDirect(t, s)
	}
}

// FuzzPeriodogram compares Periodogram with the direct DFT over fuzzed
// lengths (4–600) and values.
func FuzzPeriodogram(f *testing.F) {
	f.Add(uint16(0), 1.0, []byte{1, 2, 3, 4})
	f.Add(uint16(164), 0.25, []byte("daily and weekly"))
	f.Add(uint16(593), -3e5, []byte{0, 255, 7})
	f.Fuzz(func(t *testing.T, length uint16, scale float64, data []byte) {
		if math.IsNaN(scale) || math.Abs(scale) > 1e100 || len(data) == 0 {
			t.Skip()
		}
		s := make([]float64, 4+int(length)%597)
		for i := range s {
			s[i] = scale * float64(int8(data[i%len(data)])+int8(i*int(data[0])))
		}
		checkAgainstDirect(t, s)
	})
}

// TestDominantPeriodsSignalFree: a series whose detrended energy is at
// the rounding level of its values has no dominant period, instead of
// the tie order of zero powers or the rounding noise of a ramp.
func TestDominantPeriodsSignalFree(t *testing.T) {
	n := 2000
	zero, constant, ramp := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range constant {
		constant[i] = 7
		ramp[i] = 3 + 0.5*float64(i)
	}
	for name, s := range map[string][]float64{"zero": zero, "constant": constant, "ramp": ramp} {
		if got := DominantPeriods(s, 4, 0.15); len(got) != 0 {
			t.Errorf("%s series: dominant periods %v, want none", name, got)
		}
	}
	// A ramp carrying a faint daily cycle still reports it.
	for i := range ramp {
		ramp[i] += 1e-4 * math.Sin(2*math.Pi*float64(i)/24)
	}
	if got := DominantPeriods(ramp, 1, 0.15); len(got) != 1 || got[0] != 2000.0/83 {
		t.Errorf("ramp plus daily cycle: dominant periods %v, want [%v]", got, 2000.0/83)
	}
}

// BenchmarkPeriodogram times the periodogram at the 90-day (2,160) and
// 731-day (17,544) hourly series lengths, and at 17,543 = 53·331, a
// length with only large prime factors.
func BenchmarkPeriodogram(b *testing.B) {
	for _, n := range []int{2160, 17543, 17544} {
		s := synthDiurnal(n/168+1, 0.5, 1)[:n]
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				Periodogram(s)
			}
		})
	}
}
