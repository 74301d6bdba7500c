// Package core is the paper's primary contribution rebuilt as a library:
// the two-part analysis of MSS trace data. Part one characterises the
// whole system — request mix and latency (Table 3, Figure 3), daily,
// weekly, and two-year usage rhythm (Figures 4-6), inter-request intervals
// (Figure 7) and their periodicity (§5.2). Part two characterises
// individual files — reference counts under the eight-hour dedup rule
// (Figure 8), per-file interreference intervals (Figure 9), dynamic and
// static size distributions (Figures 10-11), directory sizes (Figure 12),
// and the file-store summary (Table 4). Everything is computed in one
// pass over a trace — either record by record through Analysis.Add, or
// shard by shard through AnalyzeStream, which fans time partitions of a
// trace.Stream over a worker pool and merges byte-identical results.
package core

import (
	"strings"
	"time"

	"filemig/internal/device"
	"filemig/internal/namespace"
	"filemig/internal/stats"
	"filemig/internal/trace"
	"filemig/internal/units"
	"filemig/internal/workload"
)

// Options configures an Analysis pass.
type Options struct {
	// Start and Days bound the calendar series (Figures 4-6). When Start
	// is zero it is taken from the first record; when Days is zero it is
	// sized from the data.
	Start time.Time
	Days  int

	// DedupWindow is §5.3's rule: at most one read and one write per file
	// per window. Zero means the paper's eight hours.
	DedupWindow time.Duration

	// Tree, when set, supplies the full MSS namespace for Table 4's
	// directory rows and Figure 12. A trace only reveals directories
	// holding referenced files; the real archive — like NCAR's — also
	// carries empty directories ("more than half of the directories had
	// only zero or one file"), which only the namespace knows about.
	// When nil, directory statistics are derived from the trace alone
	// and are conditioned on non-emptiness.
	Tree *namespace.Tree
}

// Analysis accumulates one streaming pass. Create with New, feed records
// in time order with Add, then call Report. The incremental paths — the
// stream and b2 shard mergers, the s1 snapshot codec, and the migd
// daemon — cut the trace into Partial segments, each a segment-local
// Analysis, and fold them into a master one (see accum.go). To keep
// all the paths byte-identical, every accumulator below is either an
// exact integer sum or an order-insensitive sample list that a fold
// adds up (addShared), or is recomputed at fold time by replaying the
// reference journal in record order (addRef).
//
// The per-record hot path is flat: the op×class accumulators are fixed
// arrays indexed by (op index, device class), and per-file state lives in
// a FileID-indexed slice arena behind a trace.Interner rather than a
// string-keyed map of pointers, so a record's file lookup is one interner
// probe and the rest of Add touches only dense array slots.
type Analysis struct {
	opts  Options
	start time.Time
	days  int

	// Table 3 accumulators: [op index][device class]. Bytes are summed as
	// integers (exact, order-independent); latency as (count, µs-sum)
	// cells held inline — no per-cell allocation.
	refs    [2][device.NClasses]int64
	bytes   [2][device.NClasses]int64
	latency [2][device.NClasses]latencyAgg
	errors  int64
	total   int64

	// Figure 3: latency to first byte per device class; nil until the
	// class shows a positive startup latency.
	latCDF [device.NClasses]*stats.CDF

	// Figures 4-6: calendar series, raw bytes and request counts; the
	// GB conversions happen once, at Report time.
	hourBytes  [24][2]int64 // [hour][op]
	hourCount  [24][2]int64
	dayBytes   [7][2]int64
	weekBytes  map[int][2]int64 // week index -> [op] bytes
	hourlyReqs []float64        // request count per absolute hour (periodicity)
	hourlyRead []float64

	// Figure 7: global inter-request intervals.
	lastStart time.Time
	interCDF  *stats.CDF

	// Part two: per-file state in a FileID-indexed arena. The interner
	// assigns dense IDs in first-seen record order, which also fixes the
	// (deterministic) iteration order of every per-file report loop.
	interner *trace.Interner
	files    []fileState

	// Figure 9: interreference gaps, appended in record order as each
	// surviving access closes one — per-file gap lists are never stored.
	gapCDF *stats.CDF

	// Figure 10: dynamic size distributions, [op index].
	dynFiles [2]*stats.CDF
	dynBytes [2]*stats.WeightedCDF

	// journal is a Partial's good-reference journal: exactly what a
	// fold must replay, in record order. A master's stays empty.
	journal []journalEntry
}

// journalEntry is one good reference as a segment's journal stores it:
// the file's dense ID, the direction, the start instant, and the size.
// Everything else a snapshot needs merges by sums or CDF concatenation.
type journalEntry struct {
	start int64 // UnixNano
	size  int64
	id    trace.FileID
	write bool
}

// op reports the entry's transfer direction.
func (e *journalEntry) op() trace.Op {
	if e.write {
		return trace.Write
	}
	return trace.Read
}

// opIndex collapses the two transfer directions onto array indices 0
// (read) and 1 (write).
func opIndex(op trace.Op) int {
	if op == trace.Write {
		return 1
	}
	return 0
}

// classIndex maps a device class onto its accumulator slot; classes
// outside the known range share the ClassUnknown slot rather than
// corrupting memory on malformed records.
func classIndex(c device.Class) int {
	if i := int(c); i >= 0 && i < device.NClasses {
		return i
	}
	return int(device.ClassUnknown)
}

// latencyAgg accumulates a mean latency exactly: an integer microsecond
// sum and a count merge across shards without floating-point drift.
type latencyAgg struct {
	n      int64
	micros int64
}

// meanSeconds reports the mean latency in seconds.
func (l *latencyAgg) meanSeconds() float64 {
	return float64(l.micros) / float64(l.n) / 1e6
}

// fileState is one file's part-two accumulator, held inline in the
// FileID-indexed arena — fixed size, no per-file heap pointers.
type fileState struct {
	size      units.Bytes
	reads     int64
	writes    int64
	lastRead  time.Time
	lastWrite time.Time
	lastDedup time.Time // last access surviving dedup, either op
	everRead  bool
	everWrite bool
}

// New builds an Analysis.
func New(opts Options) *Analysis {
	if opts.DedupWindow == 0 {
		opts.DedupWindow = workload.DedupWindow
	}
	return &Analysis{
		opts:      opts,
		weekBytes: map[int][2]int64{},
		interCDF:  &stats.CDF{},
		interner:  trace.NewInterner(),
		gapCDF:    &stats.CDF{},
		dynFiles:  [2]*stats.CDF{{}, {}},
		dynBytes:  [2]*stats.WeightedCDF{{}, {}},
	}
}

// Add feeds one record. Records must arrive in non-decreasing start order.
func (a *Analysis) Add(r *trace.Record) {
	if a.addShared(r) {
		a.addRef(a.internFile(r.MSSPath), r.Op, r.Start, r.Size)
	}
}

// addShared accumulates what a reference contributes that its journal
// entry cannot reproduce: the record and error counts, the calendar
// origin (resolved from the first record, errors included), and the
// op×class accumulators and startup-latency CDFs of Table 3 and Figure
// 3, which need the device class and startup latency the journal does
// not carry. Everything else a good reference contributes goes through
// addRef. It reports whether the record is a good reference; error
// references are excluded from all further analysis, as in the paper
// (§5.1).
func (a *Analysis) addShared(r *trace.Record) bool {
	a.total++
	if a.start.IsZero() {
		a.start = a.opts.Start
		if a.start.IsZero() {
			a.start = r.Start.Truncate(24 * time.Hour)
		}
	}
	if !r.OK() {
		a.errors++
		return false
	}
	opIdx, cls := opIndex(r.Op), classIndex(r.Device)

	// Table 3.
	a.refs[opIdx][cls]++
	a.bytes[opIdx][cls] += int64(r.Size)
	if r.Startup > 0 {
		l := &a.latency[opIdx][cls]
		l.n++
		l.micros += int64(r.Startup / time.Microsecond)

		// Figure 3.
		c := a.latCDF[cls]
		if c == nil {
			c = &stats.CDF{}
			a.latCDF[cls] = c
		}
		c.Add(r.Startup.Seconds())
	}
	return true
}

// addRef accumulates everything a good reference contributes that is a
// function of (file, op, start, size) alone: the calendar series
// (Figures 4-6), the periodicity series, Figure 7's inter-request
// interval, the dynamic size distributions (Figure 10) and the file's
// part-two state. Add runs it per record and FoldPartials per replayed
// journal entry, which is why every fold reproduces the slice path
// exactly; a.start must be resolved first and references must arrive in
// record order.
func (a *Analysis) addRef(id trace.FileID, op trace.Op, start time.Time, size units.Bytes) {
	opIdx := opIndex(op)
	off := start.Sub(a.start)
	day := int(off / (24 * time.Hour))
	if day+1 > a.days {
		a.days = day + 1
	}

	// Figures 4-6.
	hour := start.Hour()
	a.hourBytes[hour][opIdx] += int64(size)
	a.hourCount[hour][opIdx]++
	a.dayBytes[int(start.Weekday())][opIdx] += int64(size)
	week := day / 7
	wb := a.weekBytes[week]
	wb[opIdx] += int64(size)
	a.weekBytes[week] = wb

	// Periodicity series.
	hourIdx := int(off / time.Hour)
	if hourIdx >= 0 {
		for len(a.hourlyReqs) <= hourIdx {
			a.hourlyReqs = append(a.hourlyReqs, 0)
			a.hourlyRead = append(a.hourlyRead, 0)
		}
		//lint:floatsum-ok integer-valued count incremented in record order, exact below 2^53
		a.hourlyReqs[hourIdx]++
		if opIdx == 0 {
			a.hourlyRead[hourIdx]++ //lint:floatsum-ok same integer-valued hourly counter as above
		}
	}

	// Figure 7: the interval from the previous good reference anywhere
	// in the trace.
	if !a.lastStart.IsZero() {
		a.interCDF.Add(start.Sub(a.lastStart).Seconds())
	}
	a.lastStart = start

	// Figure 10 (dynamic sizes): every access counts.
	a.dynFiles[opIdx].Add(float64(size))
	a.dynBytes[opIdx].Add(float64(size), float64(size))

	a.addFileAccessID(id, op, start, size)
}

// internFile resolves a path to its dense FileID, extending the
// per-file arena in step with the interner on first sight.
func (a *Analysis) internFile(path string) trace.FileID {
	id := a.interner.Intern(path)
	if int(id) == len(a.files) {
		a.files = append(a.files, fileState{})
	}
	return id
}

// addFileAccessID advances one file's part-two state (reference counts,
// interreference gaps) under the §5.3 dedup rule. Dedup depends only on
// the file's own access history in time order, which is what lets a
// fold replay each segment's journal through this same transition.
//
//filemig:hotpath
func (a *Analysis) addFileAccessID(id trace.FileID, op trace.Op, start time.Time, size units.Bytes) {
	f := &a.files[id]
	f.size = size
	survives := false
	if op == trace.Read {
		if !f.everRead || start.Sub(f.lastRead) >= a.opts.DedupWindow {
			f.reads++
			f.lastRead = start
			f.everRead = true
			survives = true
		}
	} else {
		if !f.everWrite || start.Sub(f.lastWrite) >= a.opts.DedupWindow {
			f.writes++
			f.lastWrite = start
			f.everWrite = true
			survives = true
		}
	}
	if survives {
		if !f.lastDedup.IsZero() {
			a.gapCDF.Add(start.Sub(f.lastDedup).Hours() / 24)
		}
		f.lastDedup = start
	}
}

// appendJournal records one good reference in a segment's replay
// journal — all Partial.Observe keeps of it beyond the sums: everything
// addRef computes is replayed into a master at fold time, so computing
// it in the segment would be wasted work.
//
//filemig:hotpath
func (a *Analysis) appendJournal(id trace.FileID, op trace.Op, start time.Time, size units.Bytes) {
	a.journal = append(a.journal, journalEntry{
		start: start.UnixNano(), size: int64(size), id: id, write: op == trace.Write})
}

// AddAll feeds a whole slice.
func (a *Analysis) AddAll(recs []trace.Record) {
	for i := range recs {
		a.Add(&recs[i])
	}
}

// depthOf counts path components below the root. (Directory derivation
// itself lives in trace.Interner, the single copy of that rule.)
func depthOf(path string) int {
	return strings.Count(path, "/")
}
