package core

import (
	"container/heap"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"filemig/internal/device"
	"filemig/internal/stats"
	"filemig/internal/trace"
	"filemig/internal/units"
)

// The one online accumulator behind every analysis path, and its one
// fold. The slice path feeds an Accumulator directly (New + Add). Every
// other path cuts the trace into segments, accumulates each into a
// Partial, and merges them with FoldPartials: the stream and b2 paths
// fold their shards one at a time in time order through the ordered
// shard pool (shard.go); the s1 snapshot codec decodes each snapshot
// into a Partial and folds it the same way; and the migd daemon
// (internal/serve) keeps live Partials per ingest segment and folds them
// all at once on demand.
//
// A Partial accumulates only what its journal cannot reproduce — record
// and error counts, the op×class accumulators and the startup-latency
// CDFs, which need the device class and startup latency the journal
// does not carry — plus the journal itself and its record-time bounds.
// FoldPartials adds those up and then replays the segments' journals,
// k-way merged into global record time, through addRef: the exact
// per-record transitions the slice path runs. Per-file state must be
// replayed rather than merged, because §5.3 dedup survival does not
// compose from end states (see the package comment in snapshot.go); the
// calendar, periodicity and Figure 7 and 10 series are replayed too,
// so segments need not share a calendar origin, and their time ranges
// may interleave. The master's first-seen FileID assignment is kept by
// interning segment paths in the order the replayed records first touch
// them.

// Accumulator is the unified online accumulator: Analysis under the name
// the incremental paths use. The two names alias one type.
type Accumulator = Analysis

// NewAccumulator builds an empty online accumulator — New under its
// accumulator name.
func NewAccumulator(opts Options) *Accumulator { return New(opts) }

// Partial is one trace segment's partial accumulation: a segment-local
// Accumulator holding what FoldPartials sums, whose reference journal —
// the replay log FoldPartials consumes — is always retained, plus the
// segment's record-time bounds.
type Partial struct {
	acc *Accumulator

	// first and last bound every observed record, errors included.
	first, last time.Time
}

// NewPartial opens an empty segment accumulator. The segment journals
// unconditionally and never carries a namespace Tree, whatever opts
// says: a Partial's journal is its serialized truth.
func NewPartial(opts Options) *Partial {
	opts.Journal = true
	opts.Tree = nil
	return &Partial{acc: New(opts)}
}

// Observe feeds one record into the segment. Records must arrive in
// non-decreasing start order within the segment. Nothing addRef computes
// is advanced here — per-file dedup state cannot be known without the
// earlier segments — only captured in the journal for replay at fold
// time.
func (p *Partial) Observe(r *trace.Record) {
	if p.first.IsZero() {
		p.first = r.Start
	}
	p.last = r.Start
	if p.acc.addShared(r) {
		p.acc.appendJournal(p.acc.internFile(r.MSSPath), r.Op, r.Start, r.Size)
	}
}

// Records reports how many records the segment has observed, errors
// included.
func (p *Partial) Records() int64 { return p.acc.total }

// Errors reports how many of the segment's records were error records.
func (p *Partial) Errors() int64 { return p.acc.errors }

// DedupWindow reports the §5.3 window the segment was accumulated
// under. FoldPartials refuses a segment whose window differs from the
// master's.
func (p *Partial) DedupWindow() time.Duration { return p.acc.opts.DedupWindow }

// VisitRefs replays the segment's good references in record order,
// calling fn with each reference's canonical path, op, start, and size —
// the hook migd uses to rebuild its live per-file table after restoring
// segments from a checkpoint.
func (p *Partial) VisitRefs(fn func(path string, op trace.Op, start time.Time, size units.Bytes)) {
	for k := range p.acc.journal {
		e := &p.acc.journal[k]
		fn(p.acc.interner.Path(e.id), e.op(), time.Unix(0, e.start).UTC(), units.Bytes(e.size))
	}
}

// Bounds reports the segment's first and last observed record times
// (zero for an empty segment), errors included.
func (p *Partial) Bounds() (first, last time.Time) { return p.first, p.last }

// WriteSnapshot serializes the segment's accumulator in the s1 format —
// the daemon's checkpoint unit. The segment stays live and can keep
// observing records afterwards.
func (p *Partial) WriteSnapshot(w io.Writer) error {
	return p.acc.WriteSnapshot(w)
}

// PartialFromSnapshot rebuilds a segment from a decoded snapshot
// accumulator plus its externally-recorded record-time bounds (the s1
// format does not carry the bounds of error records; the daemon's
// checkpoint frames do). A zero bound falls back to the journal's.
func PartialFromSnapshot(acc *Accumulator, first, last time.Time) (*Partial, error) {
	if !acc.opts.Journal {
		return nil, errors.New("core: a segment accumulator must carry its journal")
	}
	p := &Partial{acc: acc, first: first, last: last}
	if n := len(acc.journal); n > 0 {
		if p.first.IsZero() {
			p.first = time.Unix(0, acc.journal[0].start).UTC()
		}
		if p.last.IsZero() {
			p.last = time.Unix(0, acc.journal[n-1].start).UTC()
		}
	}
	return p, nil
}

// AccumulatePartial runs one contiguous segment of records through a
// fresh Partial — the stream and b2 shard workers' unit of work.
func AccumulatePartial(opts Options, recs []trace.Record) *Partial {
	p := NewPartial(opts)
	for i := range recs {
		p.Observe(&recs[i])
	}
	return p
}

// FoldPartials merges any number of segments into the master, fresh or
// already folded into. The summed state — record and error counts, the
// op×class accumulators, the startup-latency CDFs — folds by addition in
// any order; the segments' journals are then merged into one global
// time order and replayed through addRef, the per-record transitions
// the slice path runs. The segments' record-time ranges may interleave
// arbitrarily — a live daemon's batches arrive from concurrent clients
// in no particular order, and a late single event may split an
// already-extended segment's range — provided the records themselves
// are distinct instants; ties across segments replay in the given
// segment order. Master file IDs are assigned in replay order, exactly
// as a single process reading the merged trace would.
//
// An unanchored master takes its calendar origin from Options.Start,
// else from the origin of the earliest segment that has one — which that
// segment resolved from its first record, errors included, so a segment
// holding only error records still anchors the calendar. Every segment
// must share the master's dedup window, and the merged replay must not
// start before the last reference already folded (segments fold in
// trace order across calls). On any error the master is untouched.
func (a *Accumulator) FoldPartials(ps []*Partial) error {
	entries := 0
	from := int64(math.MaxInt64) // the merged replay's first instant
	for i, p := range ps {
		sub := p.acc
		if sub.opts.DedupWindow != a.opts.DedupWindow {
			return fmt.Errorf("segment %d dedup window %v disagrees with the master's %v",
				i, sub.opts.DedupWindow, a.opts.DedupWindow)
		}
		if n := len(sub.journal); n > 0 {
			entries += n
			from = min(from, sub.journal[0].start)
		}
	}
	if entries > 0 && !a.lastStart.IsZero() && from < a.lastStart.UnixNano() {
		return fmt.Errorf("segments start at %v, before already-folded data ending %v (segments must fold in trace order)",
			time.Unix(0, from).UTC(), a.lastStart)
	}
	start := a.start
	if start.IsZero() {
		start = a.opts.Start
	}
	if start.IsZero() {
		var key time.Time
		for _, p := range ps {
			origin, k := p.acc.start, p.first
			if k.IsZero() {
				k = origin
			}
			if !origin.IsZero() && (key.IsZero() || k.Before(key)) {
				key, start = k, origin
			}
		}
	}
	if entries > 0 && start.IsZero() {
		return errors.New("journal entries present but no segment has a start time")
	}
	a.start = start

	for _, p := range ps {
		sub := p.acc
		a.total += sub.total
		a.errors += sub.errors
		for oi := 0; oi < 2; oi++ {
			for ci := 0; ci < device.NClasses; ci++ {
				a.refs[oi][ci] += sub.refs[oi][ci]
				a.bytes[oi][ci] += sub.bytes[oi][ci]
				a.latency[oi][ci].n += sub.latency[oi][ci].n
				a.latency[oi][ci].micros += sub.latency[oi][ci].micros
			}
		}
		for ci, c := range sub.latCDF {
			if c == nil {
				continue
			}
			if a.latCDF[ci] == nil {
				a.latCDF[ci] = &stats.CDF{}
			}
			a.latCDF[ci].Merge(c)
		}
	}

	// Merge-replay the journals. The heap orders by (start, segment
	// index); within one segment the journal is already in record order,
	// so only each segment's next entry competes. File IDs intern
	// lazily, on first appearance in the merged order.
	h := make(journalHeap, 0, len(ps))
	remap := make([][]trace.FileID, len(ps))
	seen := make([][]bool, len(ps))
	for si, p := range ps {
		if len(p.acc.journal) > 0 {
			h = append(h, journalCursor{si: si, start: p.acc.journal[0].start})
		}
		remap[si] = make([]trace.FileID, p.acc.interner.Len())
		seen[si] = make([]bool, p.acc.interner.Len())
	}
	heap.Init(&h)
	for len(h) > 0 {
		cur := &h[0]
		sub := ps[cur.si].acc
		e := &sub.journal[cur.k]
		if !seen[cur.si][e.id] {
			remap[cur.si][e.id] = a.internFile(sub.interner.Path(e.id))
			seen[cur.si][e.id] = true
		}
		a.addRef(remap[cur.si][e.id], e.op(), time.Unix(0, e.start).UTC(), units.Bytes(e.size))
		if cur.k++; cur.k == len(sub.journal) {
			heap.Pop(&h)
			continue
		}
		cur.start = sub.journal[cur.k].start
		if len(h) > 1 {
			heap.Fix(&h, 0)
		}
	}
	return nil
}

// journalCursor is one segment's replay position in the merge heap.
type journalCursor struct {
	start int64 // the segment's next entry's start, UnixNano
	si    int   // segment index, the tie-break
	k     int   // next journal index
}

// journalHeap is a min-heap of journal cursors by (start, segment).
type journalHeap []journalCursor

func (h journalHeap) Len() int { return len(h) }
func (h journalHeap) Less(i, j int) bool {
	if h[i].start != h[j].start {
		return h[i].start < h[j].start
	}
	return h[i].si < h[j].si
}
func (h journalHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *journalHeap) Push(x any)   { *h = append(*h, x.(journalCursor)) }
func (h *journalHeap) Pop() any     { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }
