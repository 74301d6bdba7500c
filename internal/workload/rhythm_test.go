package workload

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"filemig/internal/trace"
)

func testRhythm() *Rhythm {
	return NewRhythm(trace.Epoch, PaperSpanDays, true, 2.0)
}

func TestReadHourProfileShape(t *testing.T) {
	// Figure 4: reads jump at 8 AM, stay high through the afternoon, and
	// decay slowly in the evening.
	if readHourWeights[8] < 2*readHourWeights[7] {
		t.Error("read intensity should jump sharply at 8 AM")
	}
	if readHourWeights[10] < readHourWeights[3]*4 {
		t.Error("mid-morning should dwarf the small hours")
	}
	// "The fall is slower than the rise": 3 hours after the 16:00 peak-end
	// should still be busier than 3 hours before the 8:00 jump.
	if readHourWeights[19] <= readHourWeights[5] {
		t.Error("evening tail should exceed early morning (scientists stay late)")
	}
}

func TestWriteHourProfileNearlyFlat(t *testing.T) {
	min, max := writeHourWeights[0], writeHourWeights[0]
	for _, w := range writeHourWeights {
		if w < min {
			min = w
		}
		if w > max {
			max = w
		}
	}
	if max/min > 1.25 {
		t.Errorf("write profile varies %vx across the day, want under 1.25x (§5.2)", max/min)
	}
}

func TestDayWeights(t *testing.T) {
	// Figure 5: weekends low for reads.
	if readDayWeights[0] > 0.7 || readDayWeights[6] > 0.7 {
		t.Error("weekend read weight should be well below weekday")
	}
	// Monday is the lowest weekday.
	for d := 2; d <= 5; d++ {
		if readDayWeights[1] >= readDayWeights[d] {
			t.Errorf("Monday (%v) should be the slowest weekday (day %d = %v)",
				readDayWeights[1], d, readDayWeights[d])
		}
	}
	// Writes barely vary.
	for d := 1; d < 7; d++ {
		if writeDayWeights[d]/writeDayWeights[0] > 1.1 || writeDayWeights[0]/writeDayWeights[d] > 1.1 {
			t.Error("write day weights should be nearly constant")
		}
	}
}

func TestHolidayCalendar(t *testing.T) {
	r := testRhythm()
	// Thanksgiving 1990 was November 22; trace day index from Oct 1.
	tg1990 := int(time.Date(1990, 11, 22, 0, 0, 0, 0, time.UTC).Sub(trace.Epoch).Hours() / 24)
	if !r.IsHoliday(tg1990) {
		t.Errorf("day %d (Thanksgiving 1990) should be a holiday", tg1990)
	}
	// Thanksgiving 1991 was November 28.
	tg1991 := int(time.Date(1991, 11, 28, 0, 0, 0, 0, time.UTC).Sub(trace.Epoch).Hours() / 24)
	if !r.IsHoliday(tg1991) {
		t.Errorf("day %d (Thanksgiving 1991) should be a holiday", tg1991)
	}
	// Christmas both years.
	for _, y := range []int{1990, 1991} {
		d := int(time.Date(y, 12, 25, 0, 0, 0, 0, time.UTC).Sub(trace.Epoch).Hours() / 24)
		if !r.IsHoliday(d) {
			t.Errorf("Christmas %d (day %d) should be a holiday", y, d)
		}
	}
	// A plain mid-July day is not.
	july := int(time.Date(1991, 7, 15, 0, 0, 0, 0, time.UTC).Sub(trace.Epoch).Hours() / 24)
	if r.IsHoliday(july) {
		t.Error("mid-July should not be a holiday")
	}
	// Holidays off.
	r2 := NewRhythm(trace.Epoch, PaperSpanDays, false, 2.0)
	if r2.IsHoliday(tg1990) {
		t.Error("holidays disabled but still marked")
	}
}

func TestHolidaySuppressesReadsNotWrites(t *testing.T) {
	r := testRhythm()
	xmas := int(time.Date(1990, 12, 25, 0, 0, 0, 0, time.UTC).Sub(trace.Epoch).Hours() / 24)
	normal := xmas - 21 // same weekday three weeks earlier
	if r.ReadDayWeight(xmas) >= 0.5*r.ReadDayWeight(normal) {
		t.Errorf("Christmas read weight %v vs normal %v — want a deep dip",
			r.ReadDayWeight(xmas), r.ReadDayWeight(normal))
	}
	if r.WriteDayWeight(xmas) < r.WriteDayWeight(normal) {
		t.Errorf("Christmas write weight %v vs normal %v — writes must not dip (they rise)",
			r.WriteDayWeight(xmas), r.WriteDayWeight(normal))
	}
}

func TestGrowthAveragesToOne(t *testing.T) {
	r := testRhythm()
	sum := 0.0
	for d := 0; d < r.Days(); d++ {
		sum += r.growth(d)
	}
	mean := sum / float64(r.Days())
	if mean < 0.98 || mean > 1.02 {
		t.Errorf("growth mean = %v, want ~1", mean)
	}
	// End-to-start ratio equals the configured growth.
	ratio := r.growth(r.Days()-1) / r.growth(0)
	if ratio < 1.95 || ratio > 2.05 {
		t.Errorf("growth ratio = %v, want ~2", ratio)
	}
}

func TestGrowthDisabled(t *testing.T) {
	r := NewRhythm(trace.Epoch, 100, false, 0) // non-positive => flat
	if r.growth(0) != 1 || r.growth(99) != 1 {
		t.Error("growth should be flat when disabled")
	}
}

func TestSampleHoursFollowProfile(t *testing.T) {
	r := testRhythm()
	rng := rand.New(rand.NewSource(5))
	counts := [24]int{}
	const n = 50000
	for i := 0; i < n; i++ {
		counts[r.SampleReadHour(rng)]++
	}
	// 10 AM should see roughly readHourWeights[10]/readHourWeights[3]
	// times the 3 AM traffic.
	ratio := float64(counts[10]) / float64(counts[3])
	want := readHourWeights[10] / readHourWeights[3]
	if ratio < want*0.7 || ratio > want*1.3 {
		t.Errorf("hour ratio 10/3 = %v, want ~%v", ratio, want)
	}
	wcounts := [24]int{}
	for i := 0; i < n; i++ {
		wcounts[r.SampleWriteHour(rng)]++
	}
	wratio := float64(wcounts[10]) / float64(wcounts[3])
	if wratio > 1.35 {
		t.Errorf("write hours should be nearly flat, 10/3 ratio = %v", wratio)
	}
}

func TestMaxReadDayWeightBounds(t *testing.T) {
	r := testRhythm()
	max := r.MaxReadDayWeight()
	for d := 0; d < r.Days(); d++ {
		if r.ReadDayWeight(d) > max {
			t.Fatalf("day %d weight %v exceeds reported max %v", d, r.ReadDayWeight(d), max)
		}
	}
}

// oracleHolidays is the holiday calendar computed directly, as a map
// from trace day to read multiplier: the per-call form the Rhythm's
// tables replace.
func oracleHolidays(start time.Time, days int) map[int]float64 {
	hol := map[int]float64{}
	suppress := func(from time.Time, n int, factor float64) {
		for i := 0; i < n; i++ {
			d := int(from.AddDate(0, 0, i).Sub(start).Hours() / 24)
			if d >= 0 && d < days {
				hol[d] = factor
			}
		}
	}
	end := start.AddDate(0, 0, days)
	for year := start.Year(); year <= end.Year(); year++ {
		nov1 := time.Date(year, time.November, 1, 0, 0, 0, 0, time.UTC)
		offset := (int(time.Thursday) - int(nov1.Weekday()) + 7) % 7
		suppress(nov1.AddDate(0, 0, offset+21), 2, 0.25)
		suppress(time.Date(year, time.December, 24, 0, 0, 0, 0, time.UTC), 9, 0.30)
	}
	return hol
}

// TestRhythmTablesMatchFormula pins every per-day table entry to the
// direct per-day computation, bit for bit: the tables are a cache, so
// the generated traces must not move by a single byte.
func TestRhythmTablesMatchFormula(t *testing.T) {
	for _, tc := range []struct {
		name      string
		holidays  bool
		sharpness float64
	}{
		{"holidays", true, 1},
		{"no-holidays", false, 1},
		{"sharpened", true, 2.5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			start, days := trace.Epoch, PaperSpanDays
			r := NewShapedRhythm(start, days, tc.holidays, 2.0, tc.sharpness)
			hol := map[int]float64{}
			if tc.holidays {
				hol = oracleHolidays(start, days)
			}
			// direct is the read day weight computed per call.
			direct := func(d int) float64 {
				w := readDayWeights[start.AddDate(0, 0, d).Weekday()] * r.growth(d)
				if f, ok := hol[d]; ok {
					w *= f
				}
				return w
			}
			max := 0.0
			for d := 0; d < days; d++ {
				if w := direct(d); w > max {
					max = w
				}
			}
			if got := r.MaxReadDayWeight(); got != max {
				t.Fatalf("MaxReadDayWeight = %v, fresh loop finds %v", got, max)
			}
			for d := 0; d < days; d++ {
				w := direct(d)
				f, isHol := hol[d]
				if !isHol {
					f = 1
				}
				first := w / max
				follow := f * math.Pow(first/f, 0.4)
				switch {
				case r.ReadDayWeight(d) != w:
					t.Fatalf("day %d: ReadDayWeight %v, direct %v", d, r.ReadDayWeight(d), w)
				case r.HolidayFactor(d) != f:
					t.Fatalf("day %d: HolidayFactor %v, direct %v", d, r.HolidayFactor(d), f)
				case r.IsHoliday(d) != isHol:
					t.Fatalf("day %d: IsHoliday %v, direct %v", d, r.IsHoliday(d), isHol)
				case r.firstAccept[d] != first:
					t.Fatalf("day %d: first-access acceptance %v, direct %v", d, r.firstAccept[d], first)
				case r.followAccept[d] != follow:
					t.Fatalf("day %d: follow-up acceptance %v, direct %v", d, r.followAccept[d], follow)
				case !r.dayStart[d].Equal(start.AddDate(0, 0, d)):
					t.Fatalf("day %d: day start %v, direct %v", d, r.dayStart[d], start.AddDate(0, 0, d))
				}
			}
			// Outside the trace the per-call formula still answers, with
			// no holidays.
			for _, d := range []int{-400, -1, days, days + 30} {
				w := readDayWeights[start.AddDate(0, 0, d).Weekday()] * r.growth(d)
				if r.ReadDayWeight(d) != w || r.HolidayFactor(d) != 1 || r.IsHoliday(d) {
					t.Errorf("out-of-range day %d: weight %v (want %v), factor %v, holiday %v",
						d, r.ReadDayWeight(d), w, r.HolidayFactor(d), r.IsHoliday(d))
				}
				if !r.dayTime(d).Equal(start.AddDate(0, 0, d)) {
					t.Errorf("out-of-range day %d: day start %v", d, r.dayTime(d))
				}
			}
			// The hour totals equal the per-call sums, and the draws the
			// per-call form would make.
			hours := readHourWeights
			if tc.sharpness != 1 {
				for h, w := range hours {
					hours[h] = math.Pow(w, tc.sharpness)
				}
			}
			if r.readHours != hours {
				t.Fatalf("read hour profile %v, want %v", r.readHours, hours)
			}
			a, b := rand.New(rand.NewSource(9)), rand.New(rand.NewSource(9))
			for i := 0; i < 5000; i++ {
				if got, want := r.SampleReadHour(a), oracleSampleHour(hours, b); got != want {
					t.Fatalf("read draw %d: hour %d, per-call sum gives %d", i, got, want)
				}
				if got, want := r.SampleWriteHour(a), oracleSampleHour(writeHourWeights, b); got != want {
					t.Fatalf("write draw %d: hour %d, per-call sum gives %d", i, got, want)
				}
			}
		})
	}
}

// oracleSampleHour is sampleHour with the profile re-summed per call.
func oracleSampleHour(weights [24]float64, rng *rand.Rand) int {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	u := rng.Float64() * total
	for h, w := range weights {
		u -= w
		if u <= 0 {
			return h
		}
	}
	return 23
}
