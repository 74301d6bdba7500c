package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"filemig/internal/core"
	"filemig/internal/dist"
	"filemig/internal/serve"
	"filemig/internal/trace"
	"filemig/internal/workload"
)

// migd-live: the daemon as operators see it, a serve.Server behind a
// loopback http.Server in this process. The history is the paper-1993
// profile over 90 days; its first three quarters are backfilled
// closed-loop in 1000-record batches over 2 connections, and the last
// quarter arrives open-loop in 32-record batches spread evenly over the
// run's seconds, while a second connection asks for /v1/report every
// second with /v1/checkpoint in place of every fifth report. The scale
// keeps a report well under its 1 s cadence: near that cadence each late
// report delays the next, and report latency measures the queue, not the
// fold. A report's cost grows with the records held; the live quarter
// adds only a third to them, so the reports' latencies stay close and
// their median rests on all of them, not on the one at mid-phase.
const (
	migdScale       = 0.05
	migdDays        = 90
	backfillBatch   = 1000
	liveBatch       = 32
	controlInterval = time.Second
	checkpointEvery = 5
	// backfillReps is how many fresh daemons are backfilled; wall_s and
	// recs_per_s are medians over them.
	backfillReps = 15
)

// migdInput is the workload's input held only as encoded frames: CRC
// framed b1 batches, exactly the bodies POST /v1/ingest/batch takes.
type migdInput struct {
	backfill, live         [][]byte
	backfillRecs, liveRecs int
	bytes                  int
	end                    time.Time // the instant after the trace, the daemon's clock
}

// buildMigdInput generates the trace for seed, round-trips it through
// b1 (the wire format is second-granular, so this is what the daemon
// will hold) and cuts it into frames.
func buildMigdInput(tr *tracer, seed int64) (*migdInput, error) {
	cfg, err := workload.ScenarioConfig("paper-1993", migdScale, seed)
	if err != nil {
		return nil, err
	}
	cfg.Days = migdDays
	src, planned, err := generate(tr, cfg)
	if err != nil {
		return nil, err
	}
	id := tr.begin("bench.encode_frames", 0)
	defer tr.end(id)
	var wire bytes.Buffer
	w := trace.NewFormatWriter(&wire, trace.FormatBinary)
	if _, err := trace.Copy(w, src); err != nil {
		return nil, err
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}

	in := &migdInput{end: cfg.Start.AddDate(0, 0, cfg.Days)}
	nback := planned - planned/4
	rd := trace.NewBinaryReader(&wire)
	batch := make([]trace.Record, 0, backfillBatch)
	var buf bytes.Buffer
	flush := func() error {
		buf.Reset()
		if err := trace.WriteAllFormat(&buf, batch, trace.FormatBinary); err != nil {
			return err
		}
		f := dist.EncodeFrame(buf.Bytes())
		if in.backfillRecs < nback {
			in.backfill = append(in.backfill, f)
			in.backfillRecs += len(batch)
		} else {
			in.live = append(in.live, f)
			in.liveRecs += len(batch)
		}
		in.bytes += len(f)
		batch = batch[:0]
		return nil
	}
	for {
		r, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		batch = append(batch, r)
		n := in.backfillRecs + in.liveRecs + len(batch)
		if (n <= nback && (len(batch) == backfillBatch || n == nback)) || (n > nback && len(batch) == liveBatch) {
			if err := flush(); err != nil {
				return nil, err
			}
		}
	}
	if len(batch) > 0 {
		if err := flush(); err != nil {
			return nil, err
		}
	}
	if in.backfillRecs+in.liveRecs != planned {
		return nil, fmt.Errorf("generated %d records, planned %d", in.backfillRecs+in.liveRecs, planned)
	}
	return in, nil
}

// newDaemon builds a daemon whose clock reads end and whose POST
// /v1/checkpoint writes ckpt.
func newDaemon(ckpt string, end time.Time) (*serve.Server, error) {
	return serve.NewServer(serve.Config{
		Opts:           core.Options{DedupWindow: workload.DedupWindow},
		CheckpointPath: ckpt,
		Now:            func() time.Time { return end },
	})
}

// front is a daemon behind a loopback HTTP server.
type front struct {
	srv  *serve.Server
	hs   *http.Server
	url  string
	done chan error
}

// startFront starts serving srv on a free loopback port.
func startFront(srv *serve.Server) (*front, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f := &front{srv: srv, hs: &http.Server{Handler: srv}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { f.done <- f.hs.Serve(ln) }()
	return f, nil
}

// serveDaemon builds a daemon (see newDaemon) and serves it.
func serveDaemon(ckpt string, end time.Time) (*front, error) {
	srv, err := newDaemon(ckpt, end)
	if err != nil {
		return nil, err
	}
	return startFront(srv)
}

// stop shuts the HTTP server down and waits for it to exit.
func (f *front) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := f.hs.Shutdown(ctx)
	if serr := <-f.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// daemon is what the load generator drives: the daemon over HTTP in
// timed runs, or its methods called directly in traced runs.
type daemon interface {
	ingest(frame []byte) error
	report() (string, error)
	checkpoint() error
}

// httpDaemon drives a front over at most `workers` connections.
type httpDaemon struct {
	client *http.Client
	url    string
}

func newHTTPDaemon(url string) *httpDaemon {
	return &httpDaemon{
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     workers,
			MaxIdleConnsPerHost: workers,
			DisableCompression:  true,
		}},
		url: url,
	}
}

func (d *httpDaemon) do(method, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, d.url+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: %s: %.200s", method, path, resp.Status, out)
	}
	return out, nil
}

func (d *httpDaemon) ingest(frame []byte) error {
	_, err := d.do(http.MethodPost, "/v1/ingest/batch", frame)
	return err
}

func (d *httpDaemon) report() (string, error) {
	out, err := d.do(http.MethodGet, "/v1/report", nil)
	return string(out), err
}

func (d *httpDaemon) checkpoint() error {
	_, err := d.do(http.MethodPost, "/v1/checkpoint", nil)
	return err
}

// close drops the client's idle connections.
func (d *httpDaemon) close() { d.client.CloseIdleConnections() }

// directDaemon calls the Server methods the HTTP handlers call, with a
// span around each call into serve, core and dist when traced.
type directDaemon struct {
	tr     *tracer
	srv    *serve.Server
	parent int // span the calls of the current phase nest under

	mu               sync.Mutex
	decodeS, ingestS float64   // seconds in DecodeIngestFrame and Ingest
	folds, reports   []float64 // Accumulate and Report times, seconds
	renders          []float64 // RenderReport times, seconds
	encodes          []float64 // EncodeCheckpoint times, seconds
	last             *core.Report
}

func (d *directDaemon) ingest(frame []byte) error {
	root := d.tr.begin("bench.ingest_batch", d.parent)
	defer d.tr.end(root)
	id := d.tr.begin("serve.decode", root)
	recs, err := serve.DecodeIngestFrame(frame)
	dec := d.tr.end(id)
	if err != nil {
		return err
	}
	id = d.tr.begin("serve.ingest", root)
	d.srv.Ingest(recs)
	ing := d.tr.end(id)
	d.mu.Lock()
	d.decodeS += dec
	d.ingestS += ing
	d.mu.Unlock()
	return nil
}

func (d *directDaemon) report() (string, error) {
	root := d.tr.begin("bench.report", d.parent)
	defer d.tr.end(root)
	id := d.tr.begin("serve.fold", root)
	m, err := d.srv.Accumulate()
	fold := d.tr.end(id)
	if err != nil {
		return "", err
	}
	id = d.tr.begin("core.report", root)
	rep := m.Report()
	report := d.tr.end(id)
	id = d.tr.begin("core.render", root)
	text := core.RenderReport(rep)
	render := d.tr.end(id)
	d.mu.Lock()
	d.folds = append(d.folds, fold)
	d.reports = append(d.reports, report)
	d.renders = append(d.renders, render)
	d.last = rep
	d.mu.Unlock()
	return text, nil
}

func (d *directDaemon) checkpoint() error {
	id := d.tr.begin("serve.checkpoint_encode", d.parent)
	_, err := d.srv.EncodeCheckpoint()
	enc := d.tr.end(id)
	if err != nil {
		return err
	}
	d.mu.Lock()
	d.encodes = append(d.encodes, enc)
	d.mu.Unlock()
	return nil
}

// backfill sends every frame closed-loop over `workers` concurrent
// senders, counting each as an operation, and returns each sender's
// first error, joined.
func backfill(b *bench, d daemon, frames [][]byte) error {
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(frames) {
					return
				}
				err := d.ingest(frames[i])
				b.op("backfill batch", err)
				if err != nil && errs[w] == nil {
					errs[w] = err
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// liveStats are the open-loop phase's latencies, each timed from the
// request's due time, in milliseconds.
type liveStats struct {
	ingest, late, reports, checkpoints []float64
}

// live runs the open-loop phase: the live frames evenly spread over
// dur on one sender, and the report/checkpoint cadence on another.
func live(b *bench, d daemon, frames [][]byte, dur time.Duration) *liveStats {
	st := &liveStats{}
	start := time.Now()
	interval := dur / time.Duration(len(frames))
	sleepUntil := func(due time.Time) {
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i, f := range frames {
			due := start.Add(time.Duration(i) * interval)
			sleepUntil(due)
			st.late = append(st.late, ms(time.Since(due)))
			err := d.ingest(f)
			st.ingest = append(st.ingest, ms(time.Since(due)))
			b.op("live batch", err)
		}
	}()
	go func() {
		defer wg.Done()
		for k := 1; k <= int(dur/controlInterval); k++ {
			due := start.Add(time.Duration(k) * controlInterval)
			sleepUntil(due)
			if k%checkpointEvery == 0 {
				err := d.checkpoint()
				st.checkpoints = append(st.checkpoints, ms(time.Since(due)))
				b.op("checkpoint", err)
				continue
			}
			_, err := d.report()
			st.reports = append(st.reports, ms(time.Since(due)))
			b.op("report", err)
		}
	}()
	wg.Wait()
	return st
}

// offlineReport analyzes the frames' records with core alone — frame
// and b1 decoding done here, not by serve — in trace order.
func offlineReport(frames ...[][]byte) (string, error) {
	a := core.New(core.Options{DedupWindow: workload.DedupWindow})
	for _, fs := range frames {
		for _, f := range fs {
			payload, err := dist.DecodeFrame(f)
			if err != nil {
				return "", err
			}
			rd := trace.NewBinaryReader(bytes.NewReader(payload))
			for {
				r, err := rd.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					return "", err
				}
				a.Add(&r)
			}
		}
	}
	return core.RenderReport(a.Report()), nil
}

// restore loads a checkpoint into a fresh daemon, returning the daemon
// and the time RestoreCheckpoint took.
func restore(tr *tracer, data []byte, end time.Time) (*serve.Server, float64, error) {
	srv, err := newDaemon("", end)
	if err != nil {
		return nil, 0, err
	}
	id := tr.begin("serve.restore", 0)
	t0 := time.Now()
	err = srv.RestoreCheckpoint(data)
	d := time.Since(t0)
	tr.end(id)
	return srv, seconds(d), err
}

func runMigd(ctx context.Context, b *bench) error {
	if b.tr != nil {
		return migdTraced(b)
	}
	ckpt := filepath.Join(b.dir, "migd.ckpt")
	var setups []float64
	var in *migdInput
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		var f *front
		d, err := timed(func() error {
			var err error
			if in, err = buildMigdInput(nil, b.seed); err != nil {
				return err
			}
			f, err = serveDaemon(ckpt, in.end)
			return err
		})
		if err != nil {
			return fmt.Errorf("migd-live set-up: %w", err)
		}
		if err := f.stop(); err != nil {
			return err
		}
		setups = append(setups, seconds(d))
	}
	fmt.Fprintf(os.Stderr, "perfbench: migd-live input: %d backfill + %d live records in %d + %d frames, %d bytes\n",
		in.backfillRecs, in.liveRecs, len(in.backfill), len(in.live), in.bytes)

	// Backfill fresh daemons and read each one's first report: the
	// catch-up an operator waits through. The last one goes live.
	var walls, rates, heaps []float64
	var firsts []string
	var last *front
	var hd *httpDaemon
	for i := 0; i < backfillReps; i++ {
		if last != nil {
			hd.close()
			if err := last.stop(); err != nil {
				return err
			}
		}
		var err error
		if last, err = serveDaemon(ckpt, in.end); err != nil {
			return err
		}
		hd = newHTTPDaemon(last.url)
		runtime.GC()
		h := watchHeap()
		t0 := time.Now()
		err = backfill(b, hd, in.backfill)
		tb := time.Since(t0)
		text, rerr := hd.report()
		tw := time.Since(t0)
		heaps = append(heaps, h.peakMB())
		b.op("first report", rerr)
		if err != nil || rerr != nil {
			hd.close()
			last.stop()
			return fmt.Errorf("migd-live backfill: %w", errors.Join(err, rerr))
		}
		walls = append(walls, seconds(tw))
		rates = append(rates, float64(in.backfillRecs)/seconds(tb))
		firsts = append(firsts, text)
	}

	h := watchHeap()
	st := live(b, hd, in.live, time.Duration(b.seconds*float64(time.Second)))
	livePeak := h.peakMB()

	final, err := hd.report()
	b.op("final report", err)
	cerr := hd.checkpoint()
	b.op("final checkpoint", cerr)
	hd.close()
	serr := last.stop()
	if err != nil || cerr != nil || serr != nil {
		return fmt.Errorf("migd-live: %w", errors.Join(err, cerr, serr))
	}

	b.note("setup_s", setups, "s")
	b.note("wall_s", walls, "s")
	b.note("backfill_recs_per_s", rates, "rec/s")
	b.note("heap_live_peak_mb", heaps, "MB")
	b.note("live_heap_live_peak_mb", []float64{livePeak}, "MB")
	b.note("ingest_ms", st.ingest, "ms")
	b.note("report_ms", st.reports, "ms")
	b.note("checkpoint_ms", st.checkpoints, "ms")
	b.note("loadgen_late_ms", st.late, "ms")
	b.set("setup_s", median(setups))
	b.set("wall_s", median(walls))
	b.set("recs_per_s", median(rates))
	b.set("heap_live_peak_mb", median(heaps))
	b.set("report_p50_ms", median(st.reports))

	// Outside the timed region: restart from the final checkpoint, and
	// check every report against the offline analysis.
	data, err := os.ReadFile(ckpt)
	b.op("read checkpoint", err)
	if err != nil {
		return nil
	}
	restored, rs, rerr := restore(nil, data, in.end)
	b.op("restore checkpoint", rerr)
	b.note("restore_s", []float64{rs}, "s")
	want, err := offlineReport(in.backfill, in.live)
	b.op("offline analysis", err)
	b.check("final /v1/report equals the offline analysis", err == nil && final == want)
	if rerr == nil {
		got, rerr := restored.Report()
		b.check("restored daemon reports the same bytes", rerr == nil && got == final)
	}
	for i, text := range firsts {
		b.check(fmt.Sprintf("daemon %d's first report repeats daemon 1's", i+1), text == firsts[0])
	}
	return nil
}

// migdTraced replays the workload on the Server methods with spans, no
// HTTP. Three rounds of an HTTP backfill, an untraced direct backfill
// and a traced one give serve.http_share and bench.trace_overhead as
// medians; the last traced daemon then runs the live phase on the same
// cadence.
func migdTraced(b *bench) error {
	in, err := buildMigdInput(b.tr, b.seed)
	if err != nil {
		return fmt.Errorf("migd-live set-up: %w", err)
	}
	b.set("loadgen.input_mb", float64(in.bytes)/1e6)

	var viaHTTP, direct, traced, decode, ingest []float64
	var d *directDaemon
	for i := 0; i < overheadRounds; i++ {
		h, err := httpBackfill(b, in)
		if err != nil {
			return err
		}
		u, _, err := directBackfill(b, nil, in)
		if err != nil {
			return err
		}
		t, td, err := directBackfill(b, b.tr, in)
		if err != nil {
			return err
		}
		viaHTTP = append(viaHTTP, seconds(h))
		direct = append(direct, seconds(u))
		traced = append(traced, seconds(t))
		decode = append(decode, td.decodeS)
		ingest = append(ingest, td.ingestS)
		d = td
	}
	b.set("bench.trace_overhead", median(traced)/median(direct)-1)
	b.set("serve.http_share", 1-median(direct)/median(viaHTTP))
	b.set("serve.decode_s", median(decode))
	b.set("serve.ingest_s", median(ingest))
	return migdTracedLive(b, d, in)
}

// overheadRounds is how many times a traced migd-live run repeats its
// three backfills; one backfill lasts well under a second, too short to
// compare alone on a shared box.
const overheadRounds = 3

// httpBackfill backfills a fresh daemon over HTTP and returns the time
// it took.
func httpBackfill(b *bench, in *migdInput) (time.Duration, error) {
	f, err := serveDaemon("", in.end)
	if err != nil {
		return 0, err
	}
	hd := newHTTPDaemon(f.url)
	runtime.GC()
	took, err := timed(func() error { return backfill(b, hd, in.backfill) })
	hd.close()
	if serr := f.stop(); err == nil {
		err = serr
	}
	return took, err
}

// directBackfill backfills a fresh daemon through its methods, traced
// when tr is not nil, and returns the time it took and the daemon.
func directBackfill(b *bench, tr *tracer, in *migdInput) (time.Duration, *directDaemon, error) {
	srv, err := newDaemon("", in.end)
	if err != nil {
		return 0, nil, err
	}
	d := &directDaemon{tr: tr, srv: srv}
	runtime.GC()
	d.parent = tr.begin("bench.backfill", 0)
	took, err := timed(func() error { return backfill(b, d, in.backfill) })
	tr.end(d.parent)
	return took, d, err
}

// migdTracedLive runs the traced live phase on d, then restores the
// final checkpoint and checks the reports.
func migdTracedLive(b *bench, d *directDaemon, in *migdInput) error {
	tr := b.tr
	id := tr.probe("dist.frame_decode")
	for _, f := range in.backfill {
		if _, err := dist.DecodeFrame(f); err != nil {
			return err
		}
	}
	b.set("dist.frame_decode_ms", 1000*tr.end(id))

	d.parent = tr.begin("bench.live", 0)
	st := live(b, d, in.live, time.Duration(b.seconds*float64(time.Second)))
	tr.end(d.parent)
	d.parent = 0
	final, err := d.report()
	b.op("final report", err)
	if err != nil {
		return err
	}
	data, err := d.srv.EncodeCheckpoint()
	b.op("final checkpoint", err)
	if err != nil {
		return err
	}
	restored, rs, err := restore(tr, data, in.end)
	b.op("restore checkpoint", err)
	if err != nil {
		return err
	}

	b.set("serve.ingest_p50_ms", pct(st.ingest, 0.5))
	b.set("serve.ingest_p99_ms", pct(st.ingest, 0.99))
	b.set("loadgen.late_p99_ms", pct(st.late, 0.99))
	folds := d.folds[:len(d.folds)-1] // the control ticks, not the final report
	b.set("serve.fold_p50_ms", 1000*median(folds))
	b.set("serve.fold_max_ms", 1000*pct(folds, 1))
	if n := len(folds); n >= 6 {
		b.set("serve.fold_growth", median(folds[n-3:])/median(folds[:3]))
	}
	b.set("serve.segments", float64(d.srv.StatsNow().Segments))
	b.set("serve.checkpoint_encode_ms", 1000*median(d.encodes))
	b.set("serve.checkpoint_mb", float64(len(data))/1e6)
	b.set("serve.restore_s", rs)
	b.set("core.report_ms", 1000*median(d.reports))
	b.set("core.render_s", median(d.renders))
	periodogramProbe(b, d.last.HourlyRequests)
	setGenerate(b, int64(in.backfillRecs+in.liveRecs))

	want, err := offlineReport(in.backfill, in.live)
	b.op("offline analysis", err)
	b.check("final report equals the offline analysis", err == nil && final == want)
	got, err := restored.Report()
	b.check("restored daemon reports the same bytes", err == nil && got == final)
	return nil
}
