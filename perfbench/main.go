// Command perfbench is filemig's end-to-end benchmark. It drives the
// three surfaces that reproduce Miller & Katz from outside the library —
// b2 batch analysis, the migration-policy tournament and the live migd
// daemon — on inputs generated from a seed, checks every output against
// an independent path, and prints one JSON result line. With -trace 1 it
// instead records spans around the calls into each layer and prints the
// per-layer metrics. README.md lists the workloads and metrics.
//
//	perfbench -workload analyze-b2 -seed 1 -seconds 20 -trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"filemig/internal/stats"
	"filemig/internal/trace"
	"filemig/internal/workload"
)

// workers is the analysis, replay and connection concurrency: the
// benchmark is sized for a 2-CPU box and pins it so the work per run
// does not depend on the host.
const workers = 2

// workDir holds each run's scratch inputs, removed when the run ends,
// and the span files of traced runs. It is relative to the checkout
// root, where run.sh starts the benchmark.
const workDir = ".bench_build/work"

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 3

// minIterations is the fewest timed passes a batch workload makes, so
// its medians rest on more than one sample even when one pass outlasts
// -seconds.
const minIterations = 3

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one run's shared state: its parameters, the tracer (nil when
// untraced), the operation counts and the metrics gathered so far.
type bench struct {
	seed    int64
	seconds float64
	dir     string  // scratch directory of this run, removed at exit
	tr      *tracer // nil for an untraced run

	mu                sync.Mutex // guards attempted and failed
	attempted, failed int64
	metrics           map[string]float64
}

// op counts one attempted operation and, when err is non-nil, one
// failure, reporting it on standard error. It is safe for concurrent
// use.
func (b *bench) op(what string, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted++
	if err != nil {
		b.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", what, err)
	}
}

// check counts one output check; ok false is a failure.
func (b *bench) check(what string, ok bool) {
	var err error
	if !ok {
		err = errors.New("check failed")
	}
	b.op("check "+what, err)
}

// set records a metric; its unit comes from BENCHMARK.json.
func (b *bench) set(name string, value float64) {
	b.metrics[name] = value
}

// note prints a measurement with its sample count on standard error;
// the result line carries only the values.
func (b *bench) note(name string, samples []float64, unit string) {
	fmt.Fprintf(os.Stderr, "perfbench: %-24s n=%-5d p50=%.4g p99=%.4g max=%.4g %s\n",
		name, len(samples), pct(samples, 0.5), pct(samples, 0.99), pct(samples, 1), unit)
}

// runner runs one workload, recording its end-to-end metrics when
// untraced and its per-layer metrics when traced.
type runner func(ctx context.Context, b *bench) error

var workloads = map[string]runner{
	"analyze-b2": runAnalyze,
	"tournament": runTournament,
	"migd-live":  runMigd,
}

func main() {
	name := flag.String("workload", "", "workload to run: analyze-b2, tournament or migd-live")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	secs := flag.Float64("seconds", 20, "how long the timed phase of one run lasts")
	traced := flag.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok || *secs <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench -workload analyze-b2|tournament|migd-live -seed N -seconds S -trace 0|1")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(workers)
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fatal(err)
	}
	dir, err := os.MkdirTemp(workDir, *name+"-")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(dir)

	spec, err := readSpec()
	if err != nil {
		fatal(err)
	}
	b := &bench{seed: *seed, seconds: *secs, dir: dir, metrics: map[string]float64{}}
	want := spec.EndToEnd
	if *traced == 1 {
		b.tr = newTracer(fmt.Sprintf("%s-seed%d-%d", *name, *seed, time.Now().UnixNano()))
		want = spec.PerLayer
	}
	fmt.Fprintf(os.Stderr, "perfbench: workload %s seed %d seconds %g trace %d\n", *name, *seed, *secs, *traced)
	if err := run(context.Background(), b); err != nil {
		os.RemoveAll(dir)
		fatal(err)
	}
	if b.tr != nil {
		path := filepath.Join(workDir, "spans", b.tr.run+".json")
		if err := b.tr.write(path); err != nil {
			os.RemoveAll(dir)
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "perfbench: spans written to %s\n", path)
	}
	out := result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metric{}}
	for _, m := range want {
		v, ok := b.metrics[m.Name]
		if !ok && b.tr == nil {
			os.RemoveAll(dir)
			fatal(fmt.Errorf("workload %s did not measure %s", *name, m.Name))
		}
		// In a traced run, a layer the workload does not reach reports zero.
		out.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// fatal reports an error that leaves no result to print and exits.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// specMetric is one metric named in BENCHMARK.json.
type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchSpec is the part of BENCHMARK.json the benchmark reads: the
// metrics each kind of run reports. README.md defines them.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

// readSpec reads BENCHMARK.json from the checkout root.
func readSpec() (*benchSpec, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &spec, nil
}

// seconds returns d in seconds.
func seconds(d time.Duration) float64 { return d.Seconds() }

// ms returns d in milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median returns the median of values (the mean of the middle two for
// an even count), leaving values unsorted.
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// pct returns the nearest-rank q-quantile of values — q = 1 is the
// maximum — leaving values unsorted.
func pct(values []float64, q float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// timed runs fn and returns its wall time.
func timed(fn func() error) (time.Duration, error) {
	t0 := time.Now()
	err := fn()
	return time.Since(t0), err
}

// setBatch sets the end-to-end metrics of a batch workload from its
// set-up times and its passes' wall times and peak live heaps. A batch
// user asks for the report when the pass starts, so the report latency
// is the pass.
func (b *bench) setBatch(setups, walls, heaps []float64, records float64) {
	b.note("setup_s", setups, "s")
	b.note("wall_s", walls, "s")
	b.note("heap_live_peak_mb", heaps, "MB")
	wall := median(walls)
	b.set("setup_s", median(setups))
	b.set("wall_s", wall)
	b.set("recs_per_s", records/wall)
	b.set("heap_live_peak_mb", median(heaps))
	b.set("report_p50_ms", 1000*wall)
}

// keepGoing reports whether a batch workload should start another timed
// pass: always until minIterations passes have succeeded, then while the
// next pass (assumed as long as the median so far) still ends within the
// run's seconds.
func (b *bench) keepGoing(start time.Time, walls []float64) bool {
	if len(walls) < minIterations {
		return true
	}
	return time.Since(start).Seconds()+median(walls) <= b.seconds
}

// periodogramProbe times the §5.2 periodicity detection RenderReport
// runs, on the report's hourly series.
func periodogramProbe(b *bench, series []float64) {
	id := b.tr.probe("stats.periodogram")
	stats.DominantPeriods(series, 4, 0.15)
	b.set("stats.periodogram_s", b.tr.end(id))
	b.set("stats.periodogram_n", float64(len(series)))
}

// generate starts generating the trace cfg describes and returns it
// with its record count. A traced run materializes the records inside a
// workload.generate span, so generation is timed apart from whatever
// consumes the stream.
func generate(tr *tracer, cfg workload.Config) (trace.Stream, int, error) {
	id := tr.begin("workload.generate", 0)
	defer tr.end(id)
	gs, err := workload.GenerateStream(cfg)
	if err != nil {
		return nil, 0, err
	}
	if tr == nil {
		return gs.Stream, gs.Planned, nil
	}
	recs, err := trace.Collect(gs.Stream)
	if err != nil {
		return nil, 0, err
	}
	return trace.SliceStream(recs), gs.Planned, nil
}

// setGenerate reports trace generation from the workload.generate spans.
func setGenerate(b *bench, records int64) {
	var gen float64
	for _, lt := range b.tr.selfTimes() {
		if lt.Name == "workload.generate" {
			gen = lt.Total
		}
	}
	b.set("workload.generate_s", gen)
	if gen > 0 {
		b.set("workload.recs_per_s", float64(records)/gen)
	}
}
