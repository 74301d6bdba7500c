package core

import (
	"container/heap"
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
// fold. The slice path feeds an Analysis directly (New + Add). Every
// other path cuts the trace into segments, accumulates each into a
// Partial, and merges them with FoldPartials: the stream and b2 paths
// fold their shards one at a time in time order through the ordered
// shard pool (shard.go); the s1 snapshot codec writes and reads exactly
// one Partial (snapshot.go), and a reducer appends decoded snapshots
// with Partial.Merge and folds the result once; and the migd daemon
// (internal/serve) keeps live Partials per ingest segment, checkpoints
// them as snapshots, and folds them all at once on demand.
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

// Partial is one trace segment's partial accumulation: a segment-local
// Analysis holding what FoldPartials sums plus the reference journal —
// the replay log FoldPartials consumes and the s1 snapshot serializes —
// and the segment's record-time bounds.
type Partial struct {
	acc *Analysis

	// first and last bound every observed record, errors included.
	first, last time.Time
}

// NewPartial opens an empty segment accumulator. The segment never
// carries a namespace Tree, whatever opts says: a Partial's journal is
// its serialized truth, and trees are not serialized.
func NewPartial(opts Options) *Partial {
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
// under. FoldPartials and Merge refuse a segment whose window differs.
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

// SetBounds replaces the segment's record-time bounds with externally
// recorded ones. A decoded snapshot bounds itself by its journal, which
// holds no error records; migd's checkpoint frames carry the full
// bounds. A zero bound keeps the current one.
func (p *Partial) SetBounds(first, last time.Time) {
	if !first.IsZero() {
		p.first = first
	}
	if !last.IsZero() {
		p.last = last
	}
}

// Merge appends next, a later segment of the same trace, to p, as if p
// had gone on to observe next's records: the sums add up (the same code
// FoldPartials runs), next's journal is appended with its paths
// re-interned into p's table in first-seen order, and the bounds widen.
// next must not start before p's last reference and must share p's
// dedup window; an unanchored p takes next's calendar origin. On error
// p is untouched; next is never modified.
func (p *Partial) Merge(next *Partial) error {
	a, b := p.acc, next.acc
	if b.opts.DedupWindow != a.opts.DedupWindow {
		return fmt.Errorf("dedup window %v disagrees with the merged segments' %v",
			b.opts.DedupWindow, a.opts.DedupWindow)
	}
	if n := len(a.journal); n > 0 && len(b.journal) > 0 && b.journal[0].start < a.journal[n-1].start {
		return fmt.Errorf("segment starts at %v, before merged data ending %v (segments must merge in trace order)",
			time.Unix(0, b.journal[0].start).UTC(), time.Unix(0, a.journal[n-1].start).UTC())
	}
	if a.start.IsZero() {
		a.start = b.start
	}
	a.addSums(b)
	for _, e := range b.journal {
		e.id = a.internFile(b.interner.Path(e.id))
		a.journal = append(a.journal, e)
	}
	if p.first.IsZero() {
		p.first = next.first
	}
	if !next.last.IsZero() {
		p.last = next.last
	}
	return nil
}

// ObserveStream reads src to its end into one fresh segment — the
// snapshot producers' path. Records must arrive in non-decreasing start
// order; an out-of-order record is an error.
func ObserveStream(opts Options, src trace.Stream) (*Partial, error) {
	p := NewPartial(opts)
	for {
		r, err := src.Next()
		switch {
		case err == io.EOF:
			return p, nil
		case err != nil:
			return nil, err
		case r.Start.Before(p.last):
			return nil, fmt.Errorf("core: stream out of order: %v after %v", r.Start, p.last)
		}
		p.Observe(&r)
	}
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
func (a *Analysis) FoldPartials(ps []*Partial) error {
	from := int64(math.MaxInt64) // the merged replay's first instant
	for i, p := range ps {
		sub := p.acc
		if sub.opts.DedupWindow != a.opts.DedupWindow {
			return fmt.Errorf("segment %d dedup window %v disagrees with the master's %v",
				i, sub.opts.DedupWindow, a.opts.DedupWindow)
		}
		if len(sub.journal) > 0 {
			from = min(from, sub.journal[0].start)
		}
	}
	if !a.lastStart.IsZero() && from < a.lastStart.UnixNano() {
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
	a.start = start

	for _, p := range ps {
		a.addSums(p.acc)
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

// addSums adds what a segment accumulates itself — the record and
// error counts, the op×class accumulators and the startup-latency CDFs
// — into a. All are integer sums or sample lists concatenated in
// segment order, so the result does not depend on how the trace was cut.
func (a *Analysis) addSums(sub *Analysis) {
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
