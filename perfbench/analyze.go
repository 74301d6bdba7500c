package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"filemig/internal/core"
	"filemig/internal/trace"
	"filemig/internal/workload"
)

// analyze-b2: batch analysis of the paper's two-year trace shape along
// mssanalyze -stream's index-seek path. The trace is the paper-1993
// profile over all 731 days, so the report carries the full
// 17,544-hour series; the scale keeps one set-up (generation) near 3 s.
const analyzeScale = 0.02

// analyzeOptions are the analysis options mssanalyze uses.
func analyzeOptions(workers int) core.B2Options {
	return core.B2Options{StreamOptions: core.StreamOptions{
		Options: core.Options{DedupWindow: workload.DedupWindow},
		Workers: workers,
	}}
}

// writeB2 generates the analyze-b2 trace for seed and writes it to path
// as a b2 file, returning its record count.
func writeB2(tr *tracer, path string, seed int64) (int64, error) {
	cfg, err := workload.ScenarioConfig("paper-1993", analyzeScale, seed)
	if err != nil {
		return 0, err
	}
	src, _, err := generate(tr, cfg)
	if err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	w := trace.NewB2Writer(bw)
	id := tr.begin("trace.b2_encode", 0)
	n, err := trace.Copy(w, src)
	if err == nil {
		err = w.Flush()
	}
	tr.end(id)
	if err != nil {
		return 0, err
	}
	if err := bw.Flush(); err != nil {
		return 0, err
	}
	return n, f.Close()
}

// openB2 opens path as a b2 file; the caller closes the returned file.
func openB2(path string) (*os.File, *trace.B2File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	st, err := f.Stat()
	if err == nil {
		var bf *trace.B2File
		if bf, err = trace.OpenB2File(f, st.Size()); err == nil {
			return f, bf, nil
		}
	}
	f.Close()
	return nil, nil, err
}

// analyzePass is one timed pass: open the file, analyze it at 2
// workers, render the report.
func analyzePass(ctx context.Context, path string) (string, error) {
	f, bf, err := openB2(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	rep, err := core.AnalyzeB2(ctx, analyzeOptions(workers), bf)
	if err != nil {
		return "", err
	}
	return core.RenderReport(rep), nil
}

// referenceReport renders the report along an independent path: the
// sequential b2 stream reader at one worker.
func referenceReport(ctx context.Context, path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	rep, err := core.AnalyzeStream(ctx, analyzeOptions(1).StreamOptions, trace.NewB2Reader(bufio.NewReader(f)))
	if err != nil {
		return "", err
	}
	return core.RenderReport(rep), nil
}

func runAnalyze(ctx context.Context, b *bench) error {
	path := filepath.Join(b.dir, "trace.b2")
	reps := setupReps
	if b.tr != nil {
		reps = 1
	}
	var setups []float64
	var records int64
	for i := 0; i < reps; i++ {
		d, err := timed(func() (err error) {
			records, err = writeB2(b.tr, path, b.seed)
			return err
		})
		if err != nil {
			return fmt.Errorf("analyze-b2 set-up: %w", err)
		}
		setups = append(setups, seconds(d))
	}
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: analyze-b2 trace: %d records, %d bytes\n", records, st.Size())

	var texts []string
	if b.tr == nil {
		var walls, heaps []float64
		for start := time.Now(); b.keepGoing(start, walls); {
			runtime.GC()
			h := watchHeap()
			var text string
			d, err := timed(func() (err error) {
				text, err = analyzePass(ctx, path)
				return err
			})
			heaps = append(heaps, h.peakMB())
			b.op("analysis pass", err)
			if err != nil {
				break
			}
			walls = append(walls, seconds(d))
			texts = append(texts, text)
		}
		if len(walls) == 0 {
			return errors.New("analyze-b2: the first pass failed")
		}
		b.setBatch(setups, walls, heaps, float64(records))
	} else {
		text, err := analyzeTraced(ctx, b, path, records, float64(st.Size()))
		b.op("traced analysis pass", err)
		if err != nil {
			return err
		}
		texts = append(texts, text)
	}

	// Outside the timed region: every pass rendered the same bytes, and
	// they equal the report of the independent sequential path.
	want, err := referenceReport(ctx, path)
	b.op("reference analysis", err)
	for i, text := range texts {
		b.check(fmt.Sprintf("analysis pass %d equals the sequential b2 stream report", i+1), err == nil && text == want)
	}
	return nil
}

// analyzeTraced makes one untraced pass as the overhead baseline, then
// one traced pass split at the layer boundaries, then the probes.
func analyzeTraced(ctx context.Context, b *bench, path string, records int64, size float64) (string, error) {
	tr := b.tr
	runtime.GC()
	base, err := timed(func() error {
		_, err := analyzePass(ctx, path)
		return err
	})
	if err != nil {
		return "", err
	}

	runtime.GC()
	var text string
	var rep *core.Report
	var decodedPerBlock, allocMB float64
	d, err := timed(func() error {
		root := tr.begin("bench.analysis_pass", 0)
		defer tr.end(root)
		id := tr.begin("trace.open", root)
		f, bf, err := openB2(path)
		tr.end(id)
		if err != nil {
			return err
		}
		defer f.Close()
		alloc0 := heapAllocBytes()
		id = tr.begin("core.accumulate", root)
		a, err := core.AccumulateB2(ctx, analyzeOptions(workers), bf)
		b.set("core.accumulate_s", tr.end(id))
		if err != nil {
			return err
		}
		allocMB = float64(heapAllocBytes()-alloc0) / 1e6
		decodedPerBlock = float64(bf.DecodeCount()) / float64(bf.NumBlocks())
		id = tr.begin("core.report", root)
		rep = a.Report()
		b.set("core.report_ms", 1000*tr.end(id))
		id = tr.begin("core.render", root)
		text = core.RenderReport(rep)
		b.set("core.render_s", tr.end(id))
		return nil
	})
	if err != nil {
		return "", err
	}
	b.set("bench.trace_overhead", seconds(d)/seconds(base)-1)
	b.set("trace.b2_decoded_per_block", decodedPerBlock)
	b.set("trace.b2_bytes_per_rec", size/float64(records))
	b.set("core.alloc_mb_per_mrec", allocMB/(float64(records)/1e6))

	// Probe: the same accumulation at one worker, for the speed-up.
	f, bf, err := openB2(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	id := tr.probe("core.accumulate_1worker")
	_, err = core.AccumulateB2(ctx, analyzeOptions(1), bf)
	serial := tr.end(id)
	if err != nil {
		return "", err
	}
	b.set("core.parallel_speedup", serial/b.metrics["core.accumulate_s"])

	// Probe: decode every block once with one decoder.
	dec := bf.NewBlockDecoder()
	id = tr.probe("trace.b2_decode")
	for i := 0; i < bf.NumBlocks(); i++ {
		if _, err := dec.Decode(i); err != nil {
			tr.end(id)
			return "", err
		}
	}
	b.set("trace.b2_decode_s", tr.end(id))

	periodogramProbe(b, rep.HourlyRequests)
	setGenerate(b, records)
	return text, nil
}
