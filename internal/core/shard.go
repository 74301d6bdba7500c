package core

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"filemig/internal/trace"
)

// The sharded streaming analysis path. AnalyzeStream consumes a
// trace.Stream instead of a []trace.Record: records are cut into
// time-partitioned shards, each shard is accumulated by an independent
// worker into a Partial, and the shards fold into the master in shard
// order through the ordered shard pool below — the one pool the b2 path
// shares. Peak memory holds only the shards currently in flight
// (bounded by the worker count), never the whole trace. The merge is
// byte-identical to the slice path (New + AddAll + Report) because
// FoldPartials (see accum.go):
//
//   - adds up only the counts, op×class sums and latency CDFs a shard
//     accumulates itself, which are integer sums or order-insensitive
//     sample lists;
//   - recomputes everything else — the calendar and periodicity series,
//     Figure 7's intervals across shard boundaries, Figure 10 and the
//     per-file dedup state — by replaying each shard's reference
//     journal, in shard order, through the same addRef the slice path
//     runs per record.
//
// TestStreamEquivalence pins all of this down by comparing rendered
// output from both paths. Snapshot producers do not use the pool: an s1
// snapshot is one segment, observed sequentially (ObserveStream), since
// observing a record costs little next to decoding it.

// DefaultShardDuration is the time span of one analysis shard when
// StreamOptions does not specify one: four weeks, long enough that
// shard-boundary bookkeeping is negligible, short enough that a two-year
// trace still fans out over two dozen workers.
const DefaultShardDuration = 28 * 24 * time.Hour

// StreamOptions configures AnalyzeStream.
type StreamOptions struct {
	Options

	// ShardDuration is the width of each time partition. Zero means
	// DefaultShardDuration.
	ShardDuration time.Duration

	// Workers bounds the shard worker pool. <= 1 runs every shard on
	// the calling goroutine; this package never reads the host CPU
	// count, so callers wanting one worker per CPU resolve the count
	// explicitly (the facade and cmd/* use internal/host). The merged
	// result is byte-identical for any worker count.
	Workers int
}

// AnalyzeStream computes the paper's full Report from a record stream by
// fanning time-partitioned shards over a bounded worker pool. The result
// is byte-identical to feeding the same records through New + AddAll +
// Report, but peak memory is proportional to a shard, not the trace, and
// the shards accumulate concurrently. Records must arrive in
// non-decreasing start order (the codec readers guarantee this).
// Cancelling ctx aborts between shards with ctx's error; it never
// changes results.
func AnalyzeStream(ctx context.Context, opts StreamOptions, src trace.Stream) (*Report, error) {
	a, err := AccumulateStream(ctx, opts, src)
	if err != nil {
		return nil, err
	}
	return a.Report(), nil
}

// AccumulateStream is AnalyzeStream stopped one step short of the
// Report: it returns the merged accumulator itself, state-identical to a
// slice-path New + AddAll over the same records.
func AccumulateStream(ctx context.Context, opts StreamOptions, src trace.Stream) (*Analysis, error) {
	if opts.ShardDuration <= 0 {
		opts.ShardDuration = DefaultShardDuration
	}
	first, err := src.Next()
	if err == io.EOF {
		return New(opts.Options), nil
	}
	if err != nil {
		return nil, err
	}
	// Resolve the calendar origin exactly as Analysis.addShared would, so
	// every shard computes the same shard indices.
	if opts.Start.IsZero() {
		opts.Start = first.Start.Truncate(24 * time.Hour)
	}
	master := New(opts.Options)
	done := false
	cut := func() ([]trace.Record, bool, error) {
		if done {
			return nil, false, nil
		}
		batch, next, last, err := nextShard(opts, first, src)
		first, done = next, last
		return batch, err == nil, err
	}
	accumulate := func() func([]trace.Record) (*Partial, error) {
		return func(batch []trace.Record) (*Partial, error) {
			return AccumulatePartial(opts.Options, batch), nil
		}
	}
	if err := foldShards(ctx, master, opts.Workers, cut, accumulate); err != nil {
		return nil, err
	}
	return master, nil
}

// shardIndex places a record in its time partition.
func shardIndex(origin time.Time, d time.Duration, at time.Time) int64 {
	off := at.Sub(origin)
	idx := int64(off / d)
	if off < 0 && off%d != 0 {
		idx-- // floor division for records before the origin
	}
	return idx
}

// nextShard reads one shard's worth of records. first is the record that
// opened the shard (already read); the returned next is the record that
// opens the following shard, or zero with done=true at EOF.
func nextShard(opts StreamOptions, first trace.Record, src trace.Stream) (
	batch []trace.Record, next trace.Record, done bool, err error) {
	idx := shardIndex(opts.Start, opts.ShardDuration, first.Start)
	batch = append(batch, first)
	prev := first.Start
	for {
		r, err := src.Next()
		if err == io.EOF {
			return batch, trace.Record{}, true, nil
		}
		if err != nil {
			return nil, trace.Record{}, false, err
		}
		if r.Start.Before(prev) {
			return nil, trace.Record{}, false,
				fmt.Errorf("core: stream out of order: %v after %v", r.Start, prev)
		}
		prev = r.Start
		if shardIndex(opts.Start, opts.ShardDuration, r.Start) != idx {
			return batch, r, false, nil
		}
		batch = append(batch, r)
	}
}

// foldShards is core's one ordered shard pool. cut hands out jobs in
// trace order on the calling goroutine; each worker builds its own job
// runner with newWorker (private state such as a b2 block decoder lives
// in the closure) and turns jobs into Partials, which fold into master
// in job order. At workers <= 1 everything runs inline on the calling
// goroutine. Otherwise a folder goroutine folds while the caller keeps
// cutting — the cut (often a stream decode) and the fold are the two
// serial stages — and at most workers jobs wait unfolded. The error
// returned is the lowest-index one — a job's cut, run or fold error, in
// job order — or ctx's error when the context is cancelled before the
// next cut; in-flight jobs then finish, and no new job is cut. Neither
// the result nor the error depends on the worker count.
func foldShards[J any](ctx context.Context, master *Analysis, workers int,
	cut func() (job J, ok bool, err error), newWorker func() func(J) (*Partial, error)) error {
	fold := func(p *Partial, err error) error {
		if err == nil {
			if err = master.FoldPartials([]*Partial{p}); err != nil {
				err = fmt.Errorf("core: %w", err)
			}
		}
		return err
	}
	if workers <= 1 {
		run := newWorker()
		for {
			if err := ctx.Err(); err != nil {
				return err
			}
			job, ok, err := cut()
			if !ok {
				return err
			}
			if err := fold(run(job)); err != nil {
				return err
			}
		}
	}

	type result struct {
		p   *Partial
		err error
	}
	type task struct {
		job J
		out chan result
	}
	tasks := make(chan task)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			run := newWorker()
			for t := range tasks {
				p, err := run(t.job)
				t.out <- result{p, err}
			}
		}()
	}
	// The folder takes result slots in job order; the slot channel's
	// capacity bounds the jobs waiting unfolded. failed closes on the
	// first error, so the caller stops cutting.
	slots := make(chan chan result, workers)
	failed := make(chan struct{})
	folded := make(chan error, 1)
	go func() {
		var err error
		for out := range slots {
			r := <-out
			if err == nil {
				if err = fold(r.p, r.err); err != nil {
					close(failed)
				}
			}
		}
		folded <- err
	}()

	var stop error // the cut or ctx error, ranking after every job already cut
cutting:
	for {
		select {
		case <-failed:
			break cutting
		default:
		}
		if stop = ctx.Err(); stop != nil {
			break
		}
		job, ok, err := cut()
		if stop = err; !ok {
			break
		}
		out := make(chan result, 1)
		slots <- out
		tasks <- task{job, out}
	}
	close(tasks)
	close(slots)
	err := <-folded
	wg.Wait()
	if err == nil {
		err = stop
	}
	return err
}
