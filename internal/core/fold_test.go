package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"filemig/internal/trace"
)

// errorFirstDay returns fixture records preceded by a day that holds
// only error records, and the index where the good records begin. The
// slice path anchors its calendar on that first day, so every fold must
// too, although the day contributes no journal entry.
func errorFirstDay(t *testing.T) ([]trace.Record, int) {
	t.Helper()
	good := streamFixture(t).Records[:3000]
	day := good[0].Start.Truncate(24*time.Hour).AddDate(0, 0, -1)
	var recs []trace.Record
	for i := 0; i < 5; i++ {
		r := good[i]
		r.Start = day.Add(time.Duration(3+i) * time.Hour)
		r.Err = trace.ErrNoFile
		recs = append(recs, r)
	}
	return append(recs, good...), 5
}

// TestFoldErrorOnlyFirstSegment pins the fold's anchoring rule on a
// first segment holding only error records: the stream path at a
// one-day shard, a snapshot merge split at that day, and FoldPartials
// over snapshot-restored segments with and without their record-time
// bounds must all render the slice path's report.
func TestFoldErrorOnlyFirstSegment(t *testing.T) {
	recs, cut := errorFirstDay(t)
	slice := New(Options{})
	slice.AddAll(recs)
	want := RenderReport(slice.Report())
	check := func(t *testing.T, a *Analysis) {
		t.Helper()
		if got := RenderReport(a.Report()); got != want {
			t.Fatalf("diverged from the slice path:\n%s", firstDiff(want, got))
		}
	}

	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("stream/workers=%d", workers), func(t *testing.T) {
			a, err := AccumulateStream(context.Background(),
				StreamOptions{ShardDuration: 24 * time.Hour, Workers: workers}, trace.SliceStream(recs))
			if err != nil {
				t.Fatal(err)
			}
			check(t, a)
		})
	}

	parts := [][]trace.Record{recs[:cut], recs[cut:]}
	snaps := [][]byte{saveSlice(t, Options{}, parts[0]), saveSlice(t, Options{}, parts[1])}
	t.Run("merge snapshots", func(t *testing.T) {
		check(t, mergeSnapshots(t, snaps))
	})

	for _, bounded := range []bool{true, false} {
		t.Run(fmt.Sprintf("fold restored/bounds=%v", bounded), func(t *testing.T) {
			ps := make([]*Partial, len(parts))
			for i, part := range parts {
				var err error
				if ps[i], err = ReadSnapshot(bytes.NewReader(snaps[i])); err != nil {
					t.Fatal(err)
				}
				if bounded {
					ps[i].SetBounds(part[0].Start, part[len(part)-1].Start)
				}
			}
			m := New(Options{})
			if err := m.FoldPartials(ps); err != nil {
				t.Fatal(err)
			}
			check(t, m)
		})
	}
}

// TestFoldPartialsIntoFoldedMaster checks the fold's contract on a
// master that already holds data: segments folded across calls in trace
// order reproduce the slice path, a segment starting before the folded
// data is refused, and so is a segment cut under another dedup window —
// both without touching the master.
func TestFoldPartialsIntoFoldedMaster(t *testing.T) {
	recs := streamFixture(t).Records[:3000]
	slice := New(Options{})
	slice.AddAll(recs)
	want := RenderReport(slice.Report())

	thirds := splitN(recs, 3)
	m := New(Options{})
	for _, part := range thirds {
		if err := m.FoldPartials([]*Partial{AccumulatePartial(Options{}, part)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := RenderReport(m.Report()); got != want {
		t.Fatalf("folding across calls diverged:\n%s", firstDiff(want, got))
	}

	m = New(Options{})
	if err := m.FoldPartials([]*Partial{AccumulatePartial(Options{}, thirds[1])}); err != nil {
		t.Fatal(err)
	}
	total := m.total
	err := m.FoldPartials([]*Partial{AccumulatePartial(Options{}, thirds[0])})
	if err == nil || !strings.Contains(err.Error(), "order") {
		t.Fatalf("earlier segment into a folded master: err = %v", err)
	}
	err = m.FoldPartials([]*Partial{AccumulatePartial(Options{DedupWindow: time.Hour}, thirds[2])})
	if err == nil || !strings.Contains(err.Error(), "dedup window") {
		t.Fatalf("foreign dedup window: err = %v", err)
	}
	if m.total != total {
		t.Fatalf("refused folds changed the master: %d records, want %d", m.total, total)
	}
}

// cancelStream cancels its context once it has handed out after
// records, then keeps streaming: only the pool's own cancellation check
// can stop the run.
type cancelStream struct {
	src    trace.Stream
	after  int
	cancel context.CancelFunc
}

func (s *cancelStream) Next() (trace.Record, error) {
	if s.after--; s.after == 0 {
		s.cancel()
	}
	return s.src.Next()
}

// cancelReaderAt cancels its context on the first read once armed — the
// first block decode after the b2 file is opened.
type cancelReaderAt struct {
	r      io.ReaderAt
	armed  atomic.Bool
	cancel context.CancelFunc
}

func (c *cancelReaderAt) ReadAt(p []byte, off int64) (int, error) {
	if c.armed.Load() {
		c.cancel()
	}
	return c.r.ReadAt(p, off)
}

// TestShardPoolCancel cancels the ordered shard pool mid-run, at one
// worker and at four, on the stream and the b2 paths: every run must
// stop with the context's error.
func TestShardPoolCancel(t *testing.T) {
	recs := streamFixture(t).Records
	enc := encodeB2Blocks(t, recs, 50)
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("stream/workers=%d", workers), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			src := &cancelStream{src: trace.SliceStream(recs), after: 200, cancel: cancel}
			_, err := AnalyzeStream(ctx, StreamOptions{ShardDuration: 24 * time.Hour, Workers: workers}, src)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
		})
		t.Run(fmt.Sprintf("b2/workers=%d", workers), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			r := &cancelReaderAt{r: bytes.NewReader(enc), cancel: cancel}
			f, err := trace.OpenB2File(r, int64(len(enc)))
			if err != nil {
				t.Fatal(err)
			}
			r.armed.Store(true)
			_, err = AnalyzeB2(ctx, B2Options{StreamOptions: StreamOptions{ShardDuration: 24 * time.Hour, Workers: workers}}, f)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
		})
	}
}
