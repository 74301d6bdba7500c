package workload

import (
	"fmt"
	"math/rand"
	"time"

	"filemig/internal/device"
	"filemig/internal/namespace"
	"filemig/internal/stats"
	"filemig/internal/trace"
)

// Residence/routing model constants (§3.1, §5.1, Table 3). Small files
// live on the 3090 staging disks until they go cold; big files go straight
// to tape; cold silo cartridges are eventually shelved and need an
// operator.
const (
	// migrationWindow is how long a ≤30 MB file stays on MSS disk without
	// a reference before the MSS's internal migration moves it to tape.
	migrationWindow = 45 * 24 * time.Hour
	// shelfAge is the age past which a tape-resident file's cartridge has
	// been moved from the silo to shelf storage.
	shelfAge = 270 * 24 * time.Hour
	// manualWriteFraction of tape writes go to operator-mounted drives
	// (exports and special requests); Table 3 shows only 2% of manual
	// activity is writes.
	manualWriteFraction = 0.05
)

// Result is a generated trace plus the artefacts the analyzers need.
type Result struct {
	Config     Config
	Records    []trace.Record // time-sorted; latency fields zero (simulator fills them)
	Population *Population
	Tree       *namespace.Tree
	Rhythm     *Rhythm
}

// Generate synthesizes a trace. It is deterministic for a given Config.
// It is the materializing form of GenerateStream: the same records, as a
// slice.
func Generate(cfg Config) (*Result, error) {
	sr, err := GenerateStream(cfg)
	if err != nil {
		return nil, err
	}
	recs, err := trace.Collect(sr.Stream)
	if err != nil {
		return nil, err
	}
	return &Result{Config: sr.Config, Records: recs, Population: sr.Population,
		Tree: sr.Tree, Rhythm: sr.Rhythm}, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

type generator struct {
	cfg    Config
	rhythm *Rhythm
	tree   *namespace.Tree
	pop    *Population
}

// planFile expands one file into compact planned accesses: its logical
// plan, rhythm-mapped timestamps, device routing with residence tracking,
// and within-eight-hour duplicate requests. Each planned access carries
// its global emission sequence number, the tie-break that makes the
// streaming merge reproduce a stable sort of the eager emission order.
// A plannedAccess is a quarter the size of a trace.Record (the paths,
// size and user are per-file and materialize only when the stream
// assembles the record), which is what lets GenerateStream hold the plan
// instead of the trace.
func (g *generator) planFile(f *File, rng *rand.Rand, seq *int32) []plannedAccess {
	birth := g.sampleBirth(f, rng)
	plan := buildPlan(f, birth, g.cfg.end(), rng)
	if len(plan) == 0 {
		return nil
	}

	// Residence state. Pre-existing files start cold on shelf tape; files
	// created in-trace materialise with their first write.
	onDisk := false
	lastTouch := birth.Add(-2 * shelfAge) // pre-existing: long cold
	var created time.Time
	if f.PreExists {
		created = birth.Add(-2 * shelfAge)
	}

	var accs []plannedAccess
	for planIdx, p := range plan {
		at := g.mapToRhythm(p.at, p.op, planIdx == 0, rng)
		if !at.Before(g.cfg.end()) {
			continue
		}
		var dev device.Class
		if p.op == trace.Write {
			if created.IsZero() {
				created = at
			}
			dev = g.routeWrite(f, rng)
			onDisk = dev == device.ClassDisk
		} else {
			dev = g.routeRead(f, at, onDisk, lastTouch, created, rng)
			// An explicit read recalls small files to the staging disks.
			if int64(f.Size) <= int64(DiskThreshold) {
				onDisk = true
			}
		}
		lastTouch = at
		accs = appendAccess(accs, at, p.op, dev, seq)
		// Duplicates: batch scripts re-request the same file within the
		// eight-hour window (§6), on the same device.
		accs = g.planDuplicates(at, p.op, dev, rng, seq, accs)
	}
	return accs
}

// plannedAccess is one routed raw access before record assembly: when it
// happens, which way the data moves, and which device serves it.
type plannedAccess struct {
	at  time.Time
	seq int32 // global emission order; stable-sort tie-break
	op  uint8 // trace.Op
	dev uint8 // device.Class
}

// appendAccess appends one planned access and advances the sequence.
func appendAccess(accs []plannedAccess, at time.Time, op trace.Op, dev device.Class, seq *int32) []plannedAccess {
	accs = append(accs, plannedAccess{at: at, seq: *seq, op: uint8(op), dev: uint8(dev)})
	*seq++
	return accs
}

// sampleBirth places the file's first logical access. Created files are
// born uniformly across the trace (write intensity is flat); pre-existing
// files surface with a read, so their first access follows read intensity.
func (g *generator) sampleBirth(f *File, rng *rand.Rand) time.Time {
	day := rng.Intn(g.cfg.Days)
	if f.PreExists {
		day = g.sampleReadDay(rng)
	}
	secs := rng.Int63n(24 * 3600)
	return g.rhythm.dayStart[day].Add(time.Duration(secs) * time.Second)
}

// sampleReadDay draws a trace day proportional to read intensity
// (weekday, holiday, growth) by rejection.
//
//filemig:hotpath
func (g *generator) sampleReadDay(rng *rand.Rand) int {
	max, weight := g.rhythm.maxRead, g.rhythm.readWeight
	for {
		d := rng.Intn(g.cfg.Days)
		if rng.Float64()*max <= weight[d] {
			return d
		}
	}
}

// mapToRhythm rewrites an access's nominal time to honour the calendar:
// reads are pushed onto acceptable days (weekday/holiday/growth weighting)
// and given a working-hours hour-of-day; writes keep their day and get a
// flat hour. A file's first access uses full-strength day rejection (it
// sets the weekly shape); follow-up reads use a softened acceptance so
// they stay near their nominal day and Figure 9's short intervals
// survive (the acceptances are tabled per day by NewShapedRhythm).
// Seconds are drawn uniformly and later rewritten by burst packing.
//
//filemig:hotpath
func (g *generator) mapToRhythm(at time.Time, op trace.Op, first bool, rng *rand.Rand) time.Time {
	day := int(at.Sub(g.cfg.Start) / (24 * time.Hour))
	if day < 0 {
		day = 0
	}
	if day >= g.cfg.Days {
		return g.cfg.end() // dropped by caller
	}
	var hour int
	if op == trace.Read {
		accept := g.rhythm.followAccept
		if first {
			accept = g.rhythm.firstAccept
		}
		for tries := 0; tries < 14; tries++ {
			if rng.Float64() <= accept[day] {
				break
			}
			day++
			if day >= g.cfg.Days {
				return g.cfg.end()
			}
		}
		hour = g.rhythm.SampleReadHour(rng)
	} else {
		hour = g.rhythm.SampleWriteHour(rng)
	}
	sec := rng.Int63n(3600)
	return g.rhythm.dayStart[day].
		Add(time.Duration(hour) * time.Hour).
		Add(time.Duration(sec) * time.Second)
}

// routeWrite picks the destination device per the MSS placement policy.
func (g *generator) routeWrite(f *File, rng *rand.Rand) device.Class {
	if int64(f.Size) <= int64(DiskThreshold) {
		return device.ClassDisk
	}
	if rng.Float64() < manualWriteFraction {
		return device.ClassManualTape
	}
	return device.ClassSiloTape
}

// routeRead picks the source device from the file's residence state.
func (g *generator) routeRead(f *File, at time.Time, onDisk bool, lastTouch, created time.Time, rng *rand.Rand) device.Class {
	small := int64(f.Size) <= int64(DiskThreshold)
	if small && onDisk && at.Sub(lastTouch) <= migrationWindow {
		return device.ClassDisk
	}
	// The file is on tape: silo if its cartridge is still young, shelf
	// (operator) once it has aged out.
	age := at.Sub(created)
	if created.IsZero() {
		age = 2 * shelfAge
	}
	if age > shelfAge {
		return device.ClassManualTape
	}
	return device.ClassSiloTape
}

// planDuplicates appends the §6 repeat requests: Poisson-ish count with
// the configured mean, offsets lognormal around 40 minutes, capped inside
// the dedup window. Duplicates repeat the same operation on the same
// device.
func (g *generator) planDuplicates(at time.Time, op trace.Op, dev device.Class,
	rng *rand.Rand, seq *int32, accs []plannedAccess) []plannedAccess {
	if g.cfg.DuplicateMean <= 0 {
		return accs
	}
	p := g.cfg.DuplicateMean / (1 + g.cfg.DuplicateMean)
	n := int(stats.Geometric{P: 1 - p}.Sample(rng))
	for i := 0; i < n; i++ {
		off := time.Duration(40*lognorm(1.0, rng)) * time.Minute
		if off >= DedupWindow {
			off = DedupWindow - time.Minute
		}
		dupAt := at.Add(off)
		if dupAt.Before(g.cfg.end()) {
			accs = appendAccess(accs, dupAt, op, dev, seq)
		}
	}
	return accs
}

// buildErrors materialises the error requests for files that never
// existed (§5.1: 4.76% of references, dominated by nonexistence errors).
// They carry a size of zero, land on the disk path the lookup would have
// taken, and fail. planned is the number of good accesses already
// planned; the error count keeps the configured fraction of the total.
func (g *generator) buildErrors(rng *rand.Rand, planned int) []trace.Record {
	if g.cfg.ErrorFraction <= 0 {
		return nil
	}
	n := int(float64(planned) * g.cfg.ErrorFraction / (1 - g.cfg.ErrorFraction))
	recs := make([]trace.Record, 0, n)
	for i := 0; i < n; i++ {
		day := g.sampleReadDay(rng)
		hour := g.rhythm.SampleReadHour(rng)
		at := g.rhythm.dayStart[day].
			Add(time.Duration(hour) * time.Hour).
			Add(time.Duration(rng.Int63n(3600)) * time.Second)
		uid := uint32(1 + rng.Intn(g.cfg.Users))
		recs = append(recs, trace.Record{
			Start:     at,
			Op:        trace.Read,
			Device:    device.ClassDisk,
			Err:       trace.ErrNoFile,
			Size:      0,
			MSSPath:   fmt.Sprintf("/mss/missing/f%d", rng.Intn(1<<30)),
			LocalPath: fmt.Sprintf("/usr/tmp/u%d/missing", uid),
			UserID:    uid,
		})
	}
	return recs
}

// Burst-packing parameters (Figure 7): sessions of about a dozen
// requests with seconds-scale intra-burst gaps.
const (
	meanBurstLen  = 12.0
	smallGapMean  = 2.5 // seconds
	smallGapFloor = 0.5
)

func packHour(recs []trace.Record, hour time.Time, rng *rand.Rand, meanBurst, gapMean, gapFloor float64) {
	n := len(recs)
	// Expected seconds consumed by small gaps; the rest spreads across
	// burst boundaries.
	bursts := float64(n)/meanBurst + 1
	largeMean := (3600 - float64(n)*gapMean) / bursts
	if largeMean < 5 {
		largeMean = 5
	}
	offsets := make([]float64, n)
	t := rng.Float64() * largeMean / 2
	remaining := 0 // remaining requests in current burst
	for k := 0; k < n; k++ {
		if remaining == 0 {
			if k > 0 {
				t += rng.ExpFloat64() * largeMean
			}
			remaining = 1 + int(stats.Geometric{P: 1 / meanBurst}.Sample(rng))
		} else {
			t += gapFloor + rng.ExpFloat64()*gapMean
		}
		remaining--
		offsets[k] = t
	}
	// Keep everything inside the hour: rescale only if we overflowed.
	if last := offsets[n-1]; last >= 3599 {
		scale := 3599 / last
		for k := range offsets {
			offsets[k] *= scale
		}
	}
	for k := range recs {
		recs[k].Start = hour.Add(time.Duration(offsets[k] * float64(time.Second)))
	}
}
