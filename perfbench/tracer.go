package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// a public function. A probe is an extra call made only to isolate work
// nested inside another call; it is never counted as a child.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 for a root span
	Name   string  `json:"name"`
	Probe  bool    `json:"probe,omitempty"`
	Start  float64 `json:"start_s"` // seconds since the tracer began
	End    float64 `json:"end_s"`
}

// tracer keeps a traced run's spans in memory until the run ends. A nil
// tracer records nothing, so untraced runs share the traced code paths.
type tracer struct {
	run string
	t0  time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(run string) *tracer {
	return &tracer{run: run, t0: time.Now()}
}

// begin opens a span under parent (0 for a root) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	return t.open(name, parent, false)
}

// probe opens a probe span.
func (t *tracer) probe(name string) int {
	return t.open(name, 0, true)
}

func (t *tracer) open(name string, parent int, probe bool) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Probe: probe, Start: now, End: now})
	return id
}

// end closes span id and returns its duration in seconds.
func (t *tracer) end(id int) float64 {
	if t == nil || id == 0 {
		return 0
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	return s.End - s.Start
}

// layerTime sums per span name the total and self time: a span's self
// time is its duration minus the part of it its child spans cover.
type layerTime struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	Total  float64 `json:"total_s"`
	Self   float64 `json:"self_s"`
	Probes bool    `json:"probe,omitempty"`
}

// selfTimes summarizes the spans by name.
func (t *tracer) selfTimes() []layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][][2]float64{}
	for _, s := range t.spans {
		if s.Parent != 0 && !s.Probe {
			children[s.Parent] = append(children[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	byName := map[string]*layerTime{}
	var order []string
	for _, s := range t.spans {
		lt := byName[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name, Probes: s.Probe}
			byName[s.Name] = lt
			order = append(order, s.Name)
		}
		d := s.End - s.Start
		lt.Count++
		lt.Total += d
		lt.Self += d - covered(children[s.ID])
	}
	out := make([]layerTime, len(order))
	for i, n := range order {
		out[i] = *byName[n]
	}
	return out
}

// covered returns the length of the union of the intervals.
func covered(iv [][2]float64) float64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, lo, hi float64
	open := false
	for _, v := range iv {
		switch {
		case !open:
			lo, hi, open = v[0], v[1], true
		case v[0] > hi:
			total += hi - lo
			lo, hi = v[0], v[1]
		case v[1] > hi:
			hi = v[1]
		}
	}
	if open {
		total += hi - lo
	}
	return total
}

// write stores the run's spans and their per-name self times as JSON.
func (t *tracer) write(path string) error {
	layers := t.selfTimes()
	t.mu.Lock()
	doc := struct {
		Run    string      `json:"run"`
		Spans  []span      `json:"spans"`
		Layers []layerTime `json:"layers"`
	}{t.run, t.spans, layers}
	data, err := json.MarshalIndent(doc, "", " ")
	t.mu.Unlock()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// heapLive samples /gc/heap/live:bytes — the heap marked live by the
// latest GC — every few milliseconds and keeps the maximum.
type heapLive struct {
	stop chan struct{}
	done chan float64
}

// watchHeap starts a sampler; stopHeap returns its peak in MB.
func watchHeap() *heapLive {
	h := &heapLive{stop: make(chan struct{}), done: make(chan float64, 1)}
	go func() {
		sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		var peak uint64
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > peak {
				peak = v
			}
			select {
			case <-h.stop:
				h.done <- float64(peak) / 1e6
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// peakMB stops the sampler and returns the peak live heap in MB.
func (h *heapLive) peakMB() float64 {
	close(h.stop)
	return <-h.done
}

// heapAllocBytes returns the cumulative bytes allocated on the heap.
func heapAllocBytes() uint64 {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(sample)
	return sample[0].Value.Uint64()
}
