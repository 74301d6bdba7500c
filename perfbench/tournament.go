package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"filemig/internal/experiment"
	"filemig/internal/trace"
	"filemig/internal/workload"
)

// tournament: the published grid of testdata/tournament.json — every
// scenario × the 1993 six plus the modern policies × three capacities —
// over the full 731 days, at a scale where one grid takes about 6 s on a
// 2-CPU box. The grid is copied here so that editing the published spec
// does not silently change the benchmark.
var (
	tournamentScenarios  = []string{"paper-1993", "diurnal-interactive", "checkpoint-restart", "archive-coldscan"}
	tournamentPolicies   = []string{"stp:1.4", "stp:1", "lru", "fifo", "saac", "largest-first", "smallest-first", "random", "opt", "arc", "lruk:2", "gdsf", "cost", "stp-adapt"}
	tournamentCapacities = []float64{0.01, 0.02, 0.05}
)

const (
	tournamentScale = 0.005
	tournamentDays  = 731
)

// tournamentSpec returns the grid for seed, run on the 2-worker pool.
func tournamentSpec(seed int64) *experiment.Spec {
	return &experiment.Spec{
		Name:        "tournament",
		Description: "Every scenario x every policy x three capacities, full 731 days",
		Scenarios:   tournamentScenarios,
		Scale:       tournamentScale,
		Seed:        seed,
		Days:        tournamentDays,
		Policies:    tournamentPolicies,
		Capacities:  tournamentCapacities,
		Workers:     workers,
	}
}

// sourceRef is a scenario trace's identity computed by the benchmark
// itself: its record count and the SHA-256 of its canonical v1
// encoding, which the manifest must repeat.
type sourceRef struct {
	records int
	sha256  string
}

// referenceSources generates every scenario of the grid and computes
// its identity.
func referenceSources(tr *tracer, spec *experiment.Spec) ([]sourceRef, error) {
	refs := make([]sourceRef, len(spec.Scenarios))
	for i, name := range spec.Scenarios {
		cfg, err := workload.ScenarioConfig(name, spec.Scale, spec.Seed)
		if err != nil {
			return nil, err
		}
		cfg.Days = spec.Days
		src, _, err := generate(tr, cfg)
		if err != nil {
			return nil, err
		}
		id := tr.begin("bench.reference_hash", 0)
		refs[i], err = hashSource(src)
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: %w", name, err)
		}
	}
	return refs, nil
}

// hashSource hashes a stream's canonical v1 encoding, anchored at the
// first record as trace.WriteAll anchors it.
func hashSource(s trace.Stream) (sourceRef, error) {
	h := sha256.New()
	var w *trace.Writer
	n := 0
	for {
		r, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return sourceRef{}, err
		}
		if w == nil {
			w = trace.NewWriterEpoch(h, r.Start)
		}
		if err := w.Write(&r); err != nil {
			return sourceRef{}, err
		}
		n++
	}
	if w != nil {
		if err := w.Flush(); err != nil {
			return sourceRef{}, err
		}
	}
	return sourceRef{records: n, sha256: fmt.Sprintf("%x", h.Sum(nil))}, nil
}

// runGrid is one timed pass, as migexp run makes it: plan and run the
// grid at 2 workers, then encode the manifest and render its tables.
func runGrid(ctx context.Context, spec *experiment.Spec) ([]byte, error) {
	plan, err := experiment.BuildPlan(spec)
	if err != nil {
		return nil, err
	}
	m, err := experiment.RunPlan(ctx, plan)
	if err != nil {
		return nil, err
	}
	js, err := m.EncodeJSON()
	_ = experiment.RenderManifest(m)
	return js, err
}

func runTournament(ctx context.Context, b *bench) error {
	spec := tournamentSpec(b.seed)
	reps := setupReps
	if b.tr != nil {
		reps = 1
	}
	var setups []float64
	var refs []sourceRef
	for i := 0; i < reps; i++ {
		d, err := timed(func() error {
			if _, err := experiment.BuildPlan(spec); err != nil {
				return err
			}
			var err error
			refs, err = referenceSources(b.tr, spec)
			return err
		})
		if err != nil {
			return fmt.Errorf("tournament set-up: %w", err)
		}
		setups = append(setups, seconds(d))
	}
	records := 0
	for _, r := range refs {
		records += r.records
	}
	fmt.Fprintf(os.Stderr, "perfbench: tournament sources: %d records over %d scenarios\n", records, len(refs))

	var manifests [][]byte
	if b.tr == nil {
		var walls, heaps []float64
		for start := time.Now(); b.keepGoing(start, walls); {
			runtime.GC()
			h := watchHeap()
			var js []byte
			d, err := timed(func() (err error) {
				js, err = runGrid(ctx, spec)
				return err
			})
			heaps = append(heaps, h.peakMB())
			b.op("grid pass", err)
			if err != nil {
				break
			}
			walls = append(walls, seconds(d))
			manifests = append(manifests, js)
		}
		if len(walls) == 0 {
			return errors.New("tournament: the first pass failed")
		}
		b.setBatch(setups, walls, heaps, float64(records))
	} else {
		js, err := tournamentTraced(ctx, b, spec, int64(records))
		b.op("traced grid pass", err)
		if err != nil {
			return err
		}
		manifests = append(manifests, js)
	}

	// Outside the timed region: every pass produced the same bytes, and
	// the manifest is complete and repeats the sources' identities.
	for i, js := range manifests {
		b.check(fmt.Sprintf("grid pass %d repeats pass 1 byte for byte", i+1), bytes.Equal(js, manifests[0]))
	}
	m, err := experiment.DecodeManifest(manifests[0])
	b.op("decode manifest", err)
	if err == nil {
		b.check("manifest is complete", manifestComplete(m, spec, refs))
	}
	return nil
}

// manifestComplete reports whether m holds every cell of the grid, with
// self-consistent counters, for sources matching refs.
func manifestComplete(m *experiment.Manifest, spec *experiment.Spec, refs []sourceRef) bool {
	np, nc := len(spec.Policies), len(spec.Capacities)
	if m.Grid.Cells != len(refs)*np*nc || len(m.Scenarios) != len(refs) {
		return false
	}
	for i, sr := range m.Scenarios {
		if sr.Name != spec.Scenarios[i] || sr.Records != refs[i].records ||
			sr.TraceSHA256 != refs[i].sha256 || len(sr.Policies) != np {
			return false
		}
		for _, row := range sr.Policies {
			if len(row.Cells) != nc {
				return false
			}
			for j, c := range row.Cells {
				if c.CapacityFraction != spec.Capacities[j] || c.Reads == 0 ||
					c.Reads != c.ReadHits+c.ReadMisses {
					return false
				}
			}
		}
	}
	return true
}

// tournamentTraced makes one untraced grid pass as the overhead
// baseline and one traced pass, then replays every cell alone — as
// CellRunner.RunCell does for a distributed worker — to split the
// replay time by policy. The cell-by-cell manifest must equal the
// pooled one byte for byte.
func tournamentTraced(ctx context.Context, b *bench, spec *experiment.Spec, records int64) ([]byte, error) {
	tr := b.tr
	runtime.GC()
	base, err := timed(func() error {
		_, err := runGrid(ctx, spec)
		return err
	})
	if err != nil {
		return nil, err
	}
	runtime.GC()
	id := tr.begin("experiment.run", 0)
	js, err := runGrid(ctx, spec)
	wall := tr.end(id)
	if err != nil {
		return nil, err
	}
	b.set("bench.trace_overhead", wall/seconds(base)-1)
	plan, err := experiment.BuildPlan(spec)
	if err != nil {
		return nil, err
	}
	if len(plan.Policies) != len(tournamentPolicies) {
		return nil, fmt.Errorf("plan has %d policies, want %d", len(plan.Policies), len(tournamentPolicies))
	}

	// Probe: every cell replayed alone at one worker. A source loads on
	// its first cell, so that cell runs twice and the first call's extra
	// time is the load.
	cr := experiment.NewCellRunner(plan)
	refs := plan.CellRefs()
	outcomes := make([]experiment.CellOutcome, len(refs))
	perPolicy := make([]float64, len(plan.Policies))
	var replay, load float64
	var evictions int64
	firstCall := map[int]float64{}
	for _, ref := range refs {
		if _, seen := firstCall[ref.Source]; !seen {
			id := tr.probe("experiment.load_source")
			_, err := cr.RunCell(ctx, ref)
			firstCall[ref.Source] = tr.end(id)
			if err != nil {
				return nil, err
			}
		}
		id := tr.probe("migration.replay")
		o, err := cr.RunCell(ctx, ref)
		d := tr.end(id)
		if err != nil {
			return nil, err
		}
		if ref.Policy == 0 && ref.Capacity == 0 {
			load += firstCall[ref.Source] - d
		}
		outcomes[plan.CellID(ref)] = o
		replay += d
		perPolicy[ref.Policy] += d
		evictions += o.Cell.Evictions
	}
	b.set("migration.replay_s", replay)
	for i, p := range tournamentPolicies {
		b.set(replayMetric(p), perPolicy[i])
	}
	b.set("migration.evictions", float64(evictions))
	b.set("migration.pool_speedup", replay/(wall-load))

	setGenerate(b, records)
	b.set("experiment.generate_share", b.metrics["workload.generate_s"]/wall)

	cells, err := experiment.AssembleManifest(plan, outcomes)
	b.op("assemble cell-by-cell manifest", err)
	if err == nil {
		cjs, err := cells.EncodeJSON()
		b.check("cell-by-cell manifest equals the pooled one", err == nil && bytes.Equal(cjs, js))
	}
	return js, nil
}

// replayMetric names a policy's replay-time metric: its spec string
// with ':' written as '-'.
func replayMetric(policy string) string {
	return "migration.replay_s." + strings.ReplaceAll(policy, ":", "-")
}
