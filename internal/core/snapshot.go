package core

import (
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"filemig/internal/device"
	"filemig/internal/stats"
	"filemig/internal/trace"
)

// The s1 analysis-snapshot codec: one serialized Partial — a trace
// segment's accumulation — that any number of processes can produce
// over slices of a trace and a reducer can merge into a result
// byte-identical to one process analysing the whole trace — the
// map-reduce shape of the sharded in-process path (AnalyzeStream)
// carried across process and machine boundaries. The full wire layout
// is specified in docs/snapshots.md; briefly, after a one-line ASCII
// header ("#filemig-trace b1"'s sibling, "#filemig-snapshot s1") a
// snapshot carries
//
//	meta      start time, dedup window, total/error counts
//	sums      the op×class accumulators (references, bytes, latency)
//	latency   one serialized CDF per device class (Figure 3)
//	interner  the path table, FileID-dense in first-seen order
//	journal   one (fileID, op, Δstart, size) entry per good reference
//
// — exactly the fields of a Partial, so writing and reading are plain
// encode and decode, with nothing computed or replayed. Two facts shape
// the format. First, per-file dedup survival (§5.3) does not compose
// from end states: earlier history can flip which of a later shard's
// accesses survive arbitrarily deep into the shard, and Figure 9's
// interreference gaps must interleave across files in global record
// order — so the journal, not a per-file arena, is the serialized
// truth, and everything derivable from (time, op, size) — per-file
// state, the calendar and periodicity series, Figures 7 and 10 — is
// recomputed when the segment folds (FoldPartials) by replaying it
// through the exact code the slice path runs. Second, what is not
// derivable from the journal — the device-class split and the startup
// latencies — is serialized directly, and doubles as an integrity
// check: the op×class reference sums must equal the journal length, so
// a truncated or tampered snapshot fails to load instead of skewing the
// merged report.

// snapHasStart marks a snapshot whose analysis has seen at least one
// record and therefore carries its resolved calendar origin. The
// remaining flag bits are reserved and must be zero.
const snapHasStart = 1 << 0

// maxSnapshotPathLen bounds interned path fields, matching the b1 trace
// codec's limit.
const maxSnapshotPathLen = 1 << 16

// maxSnapshotBlobLen bounds the length prefix of a serialized CDF
// section. Reading is chunked, so this is a sanity bound on the length
// field, not an allocation.
const maxSnapshotBlobLen = 1 << 40

// WriteSnapshot serializes the segment in the s1 format — the unit
// every snapshot producer writes and migd's checkpoint unit. The
// segment stays live and can keep observing records afterwards.
func (p *Partial) WriteSnapshot(w io.Writer) error {
	a := p.acc
	ww := trace.NewWireWriter(w)
	ww.Raw([]byte(trace.SnapshotHeader))
	ww.Byte('\n')

	if a.start.IsZero() {
		ww.Byte(0)
	} else {
		ww.Byte(snapHasStart)
		ww.Svarint(a.start.UnixNano())
	}
	ww.Uvarint(uint64(a.opts.DedupWindow))
	ww.Uvarint(uint64(device.NClasses))
	ww.Uvarint(uint64(a.total))
	ww.Uvarint(uint64(a.errors))

	for oi := 0; oi < 2; oi++ {
		for ci := 0; ci < device.NClasses; ci++ {
			ww.Uvarint(uint64(a.refs[oi][ci]))
			ww.Uvarint(uint64(a.bytes[oi][ci]))
			ww.Uvarint(uint64(a.latency[oi][ci].n))
			ww.Uvarint(uint64(a.latency[oi][ci].micros))
		}
	}

	var blob []byte
	for ci := range a.latCDF {
		blob = blob[:0]
		if c := a.latCDF[ci]; c != nil {
			blob, _ = c.AppendBinary(blob) // error is always nil
		}
		ww.Bytes(blob)
	}

	ww.Uvarint(uint64(a.interner.Len()))
	for i := 0; i < a.interner.Len(); i++ {
		ww.String(a.interner.Path(trace.FileID(i)))
	}

	ww.Uvarint(uint64(len(a.journal)))
	var prev int64
	for k := range a.journal {
		e := &a.journal[k]
		idOp := uint64(e.id) << 1
		if e.write {
			idOp |= 1
		}
		ww.Uvarint(idOp)
		if k == 0 {
			ww.Svarint(e.start)
		} else {
			if e.start < prev {
				return fmt.Errorf("core: journal out of time order at entry %d", k+1)
			}
			ww.Uvarint(uint64(e.start - prev))
		}
		if e.size < 0 {
			return fmt.Errorf("core: journal entry %d has negative size %d", k+1, e.size)
		}
		ww.Uvarint(uint64(e.size))
		prev = e.start
	}
	return ww.Flush()
}

// MergeSnapshots loads any number of s1 snapshots — in trace time
// order, each covering a disjoint contiguous slice — and merges them
// into one Analysis whose rendered Report is byte-identical to a single
// process analysing the concatenated trace. Slice boundaries need not
// respect the dedup window or any shard width, and the snapshot
// producers need not have agreed on a calendar origin: the first
// snapshot's resolved origin anchors the merge, exactly as the first
// record anchors a single-process run. Dedup windows must agree across
// snapshots. On any decode or validation error the partial merge is
// discarded.
func MergeSnapshots(rs ...io.Reader) (*Analysis, error) {
	var sm SnapshotMerger
	for _, r := range rs {
		if err := sm.Add(r); err != nil {
			return nil, err
		}
	}
	return sm.Analysis()
}

// SnapshotMerger is MergeSnapshots for callers that receive snapshots
// one at a time — the distributed coordinator merges each arriving shard
// snapshot immediately instead of buffering them all. Snapshots must be
// Added in trace time order; each decoded segment is appended to one
// merged Partial with Merge, and the fold runs once, in Analysis. The
// first snapshot's resolved origin anchors the merge. The zero value is
// an empty merger. After any Add error the merger is poisoned and every
// later call fails the same way.
type SnapshotMerger struct {
	p    *Partial
	n    int
	fail error
}

// Add merges the next snapshot in trace order.
func (sm *SnapshotMerger) Add(r io.Reader) error {
	if sm.fail != nil {
		return sm.fail
	}
	p, err := ReadSnapshot(r)
	if err == nil && sm.p != nil {
		err = sm.p.Merge(p)
	} else if err == nil {
		sm.p = p
	}
	if err != nil {
		sm.fail = fmt.Errorf("core: snapshot %d: %w", sm.n+1, err)
		return sm.fail
	}
	sm.n++
	return nil
}

// Partial returns the merged segment — what a single process observing
// the concatenated trace would hold, and so what re-saving the merge as
// one snapshot writes. It errors on an empty or poisoned merger.
func (sm *SnapshotMerger) Partial() (*Partial, error) {
	if sm.fail != nil {
		return nil, sm.fail
	}
	if sm.n == 0 {
		return nil, errors.New("core: no snapshots merged")
	}
	return sm.p, nil
}

// Analysis folds the merged segment into a fresh analysis —
// state-identical to a single process analysing the concatenated
// trace. It errors on an empty or poisoned merger.
func (sm *SnapshotMerger) Analysis() (*Analysis, error) {
	p, err := sm.Partial()
	if err != nil {
		return nil, err
	}
	a := New(Options{DedupWindow: p.DedupWindow()})
	if err := a.FoldPartials([]*Partial{p}); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return a, nil
}

// ReadSnapshot decodes one s1 snapshot into a segment Partial,
// validating structure and cross-checking the serialized sums against
// the journal as it goes. Nothing is replayed: the segment holds the
// raw accumulators and the absolute-time journal, bounded by its first
// and last reference, and FoldPartials recomputes everything derivable
// when the segment folds into a master. The segment re-saves
// byte-identically and can keep observing records.
func ReadSnapshot(r io.Reader) (*Partial, error) {
	wr := trace.NewWireReader(r)
	line, err := wr.Line()
	if err != nil {
		return nil, fmt.Errorf("header: %w", err)
	}
	if line != trace.SnapshotHeader {
		return nil, fmt.Errorf("not an s1 snapshot header: %.60q", line)
	}
	flags, err := wr.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("flags: %w", unexpectEOF(err))
	}
	if flags&^byte(snapHasStart) != 0 {
		return nil, fmt.Errorf("reserved flag bits set (0x%02x)", flags)
	}
	var start time.Time
	if flags&snapHasStart != 0 {
		ns, err := wr.Svarint("start time")
		if err != nil {
			return nil, err
		}
		start = time.Unix(0, ns).UTC()
	}
	dw, err := wr.Uvarint("dedup window", math.MaxInt64)
	if err != nil {
		return nil, err
	}
	if dw == 0 {
		return nil, errors.New("dedup window must be positive")
	}
	nc, err := wr.Uvarint("device class count", 64)
	if err != nil {
		return nil, err
	}
	if int(nc) != device.NClasses {
		return nil, fmt.Errorf("snapshot has %d device classes, this build has %d", nc, device.NClasses)
	}
	total, err := wr.Uvarint("total references", math.MaxInt64)
	if err != nil {
		return nil, err
	}
	errRefs, err := wr.Uvarint("error references", math.MaxInt64)
	if err != nil {
		return nil, err
	}
	if errRefs > total {
		return nil, fmt.Errorf("%d error references exceed %d total", errRefs, total)
	}

	sub := New(Options{DedupWindow: time.Duration(dw)})
	sub.start = start
	sub.total = int64(total)
	sub.errors = int64(errRefs)

	// The op×class accumulators; their reference sum must match the
	// journal length below.
	var refsSum, latSum int64
	for oi := 0; oi < 2; oi++ {
		for ci := 0; ci < device.NClasses; ci++ {
			for _, f := range []struct {
				dst   *int64
				field string
			}{
				{&sub.refs[oi][ci], "references"},
				{&sub.bytes[oi][ci], "byte total"},
				{&sub.latency[oi][ci].n, "latency count"},
				{&sub.latency[oi][ci].micros, "latency total"},
			} {
				v, err := wr.Uvarint(f.field, math.MaxInt64)
				if err != nil {
					return nil, err
				}
				*f.dst = int64(v)
			}
			refsSum += sub.refs[oi][ci]
			latSum += sub.latency[oi][ci].n
		}
	}

	// Figure 3's per-class latency CDFs.
	var latSamples int64
	for ci := range sub.latCDF {
		blob, err := readBlob(wr, "latency cdf")
		if err != nil {
			return nil, err
		}
		if len(blob) == 0 {
			continue
		}
		c := &stats.CDF{}
		if err := c.UnmarshalBinary(blob); err != nil {
			return nil, fmt.Errorf("latency cdf class %d: %w", ci, err)
		}
		if c.N() == 0 {
			return nil, fmt.Errorf("latency cdf class %d: present but empty", ci)
		}
		sub.latCDF[ci] = c
		latSamples += int64(c.N())
	}
	if latSamples != latSum {
		return nil, fmt.Errorf("latency cdfs hold %d samples, op×class counts say %d", latSamples, latSum)
	}

	// The interner table, in first-seen order, becomes the segment's own
	// table; FoldPartials re-interns it into the master in this same order.
	nPaths, err := wr.Uvarint("path count", 1<<32)
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < nPaths; i++ {
		p, err := wr.Bytes("path", "path length", maxSnapshotPathLen)
		if err != nil {
			return nil, err
		}
		if len(p) == 0 {
			return nil, fmt.Errorf("path %d is empty", i)
		}
		sub.internFile(string(p))
	}

	// The journal, decoded to absolute times for replay at fold time.
	nEntries, err := wr.Uvarint("journal entry count", math.MaxInt64)
	if err != nil {
		return nil, err
	}
	if int64(nEntries) != refsSum {
		return nil, fmt.Errorf("journal holds %d entries, op×class references sum to %d", nEntries, refsSum)
	}
	if total != errRefs+uint64(refsSum) {
		return nil, fmt.Errorf("%d total references != %d errors + %d good", total, errRefs, refsSum)
	}
	if nEntries > 0 && start.IsZero() {
		return nil, errors.New("journal entries present but no start time")
	}
	sub.journal = make([]journalEntry, 0, capHint(nEntries))
	var prev int64
	seen := trace.FileID(0) // enforces dense first-seen ID order
	for k := uint64(0); k < nEntries; k++ {
		idOp, err := wr.Uvarint("journal file id", 1<<33-1)
		if err != nil {
			return nil, err
		}
		sid := trace.FileID(idOp >> 1)
		if uint64(sid) >= nPaths {
			return nil, fmt.Errorf("journal entry %d references path %d of %d", k+1, sid, nPaths)
		}
		if sid > seen {
			return nil, fmt.Errorf("journal entry %d breaks first-seen id order (%d after %d ids)", k+1, sid, seen)
		}
		if sid == seen {
			seen++
		}
		var at int64
		if k == 0 {
			at, err = wr.Svarint("journal start time")
			if err != nil {
				return nil, err
			}
		} else {
			dt, err := wr.Uvarint("journal time delta", math.MaxInt64)
			if err != nil {
				return nil, err
			}
			if prev > 0 && int64(dt) > math.MaxInt64-prev {
				return nil, fmt.Errorf("journal entry %d time overflows", k+1)
			}
			at = prev + int64(dt)
		}
		size, err := wr.Uvarint("journal size", math.MaxInt64)
		if err != nil {
			return nil, err
		}
		sub.journal = append(sub.journal, journalEntry{
			start: at, size: int64(size), id: sid, write: idOp&1 != 0})
		prev = at
	}
	if uint64(seen) != nPaths {
		return nil, fmt.Errorf("interner table has %d paths but the journal references only %d", nPaths, seen)
	}
	if err := wr.ExpectEOF(); err != nil {
		return nil, err
	}
	p := &Partial{acc: sub}
	if n := len(sub.journal); n > 0 {
		p.first = time.Unix(0, sub.journal[0].start).UTC()
		p.last = time.Unix(0, sub.journal[n-1].start).UTC()
	}
	return p, nil
}

// readBlob reads one length-prefixed binary section in window-sized
// chunks, so a corrupt length prefix cannot force a large allocation
// before the stream runs dry.
func readBlob(wr *trace.WireReader, field string) ([]byte, error) {
	n, err := wr.Uvarint(field+" length", maxSnapshotBlobLen)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, capHint(n))
	for remaining := n; remaining > 0; {
		chunk := remaining
		if chunk > 1<<15 {
			chunk = 1 << 15
		}
		b, err := wr.Fixed(field, int(chunk))
		if err != nil {
			return nil, err
		}
		out = append(out, b...)
		remaining -= chunk
	}
	return out, nil
}

// capHint bounds a pre-allocation by a declared-but-unverified count.
func capHint(n uint64) int {
	if n > 1<<16 {
		return 1 << 16
	}
	return int(n)
}

// unexpectEOF converts a clean EOF into io.ErrUnexpectedEOF for fields
// that must be present.
func unexpectEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
