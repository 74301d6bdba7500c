package dist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"
)

// Config describes one coordinated run: a fixed ordered task list, the
// plan blob workers execute it from, and the in-order result consumer.
type Config struct {
	// Kind selects the worker-side executor (KindGrid, KindB2Shard).
	Kind string
	// PlanHash identifies the plan; workers echo it back implicitly by
	// fetching the plan blob, and journals refuse to resume under a
	// different hash.
	PlanHash string
	// Plan is the kind-specific plan blob served to workers.
	Plan []byte
	// Payloads holds one task payload per task ID.
	Payloads [][]byte
	// Handle consumes results in strict task order (0, 1, 2, ...). It
	// is never called twice for one ID, and a Handle error fails the
	// run. Calls are serialized.
	Handle func(id int, result []byte) error
}

// taskState tracks one task through the claim/retry/complete life
// cycle. All fields are guarded by the coordinator mutex.
type taskState struct {
	done     bool
	result   []byte    // buffered until delivered in order
	attempts int       // failed or expired leases so far
	readyAt  time.Time // pending: claimable at/after this time
	leased   int       // open leases on this task
	specAt   time.Time // leased: speculative duplicate allowed after this
	lastErr  string
}

// lease is one granted claim on a task, open until a result or failure
// report arrives under its ID or its deadline passes. A task's leases
// stay open after another lease completes it: their holders are still
// executing and will come back.
type lease struct {
	task     int
	deadline time.Time
}

// Coordinator owns a run's task queue and serves the worker protocol.
// Create with NewCoordinator, drive with Serve.
type Coordinator struct {
	cfg  Config
	opts Options
	jr   *journal

	mu       sync.Mutex
	tasks    []taskState
	frontier int // next task ID to deliver to Handle
	leaseSeq int64
	leases   map[int64]lease // open leases by ID
	closed   int             // leases closed so far, by result, failure report or expiry
	rng      *rand.Rand
	fatal    error
	done     chan struct{} // closed on completion or fatal error
	resumed  int           // tasks loaded done from the journal
}

// NewCoordinator validates the config, opens (and replays) the journal
// if one is configured, and returns a coordinator ready to Serve.
func NewCoordinator(cfg Config, opts Options) (*Coordinator, error) {
	if len(cfg.Payloads) == 0 {
		return nil, errors.New("dist: a run needs at least one task")
	}
	if cfg.Handle == nil {
		return nil, errors.New("dist: Config.Handle is required")
	}
	opts = opts.withDefaults()
	if opts.Now == nil {
		return nil, errors.New("dist: Options.Now is required on coordinators (pass host.Now at the boundary)")
	}
	c := &Coordinator{
		cfg:    cfg,
		opts:   opts,
		tasks:  make([]taskState, len(cfg.Payloads)),
		leases: map[int64]lease{},
		rng:    rand.New(rand.NewSource(opts.Seed)),
		done:   make(chan struct{}),
	}
	if opts.JournalDir != "" {
		jr, err := openJournal(opts.JournalDir, cfg.Kind, cfg.PlanHash, len(cfg.Payloads))
		if err != nil {
			return nil, err
		}
		c.jr = jr
		for id := range c.tasks {
			if payload, ok := jr.get(id); ok {
				c.tasks[id].done = true
				c.tasks[id].result = payload
				c.resumed++
			}
		}
		if err := c.deliverLocked(); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// Resumed reports how many tasks were restored already-complete from
// the journal — zero on a fresh run.
func (c *Coordinator) Resumed() int { return c.resumed }

// The coordinator's HTTP server timeouts. Workers send small requests
// whose headers arrive at once, so a connection that has not finished
// its request headers within serverReadHeaderTimeout is stuck or
// hostile and is closed; a keep-alive connection idle for
// serverIdleTimeout is closed too, and its worker simply redials.
const (
	serverReadHeaderTimeout = 5 * time.Second
	serverIdleTimeout       = time.Minute
)

// Serve runs the coordinator protocol on ln until every task has been
// delivered, the run fails, or ctx is cancelled. On cancellation the
// HTTP server drains gracefully and the journal (if any) is already
// durable, so a new coordinator over the same journal directory
// resumes without re-running completed tasks; the returned error is
// ctx's.
func (c *Coordinator) Serve(ctx context.Context, ln net.Listener) error {
	mux := http.NewServeMux()
	mux.HandleFunc("GET "+pathPlan, c.handlePlan)
	mux.HandleFunc("POST "+pathClaim, c.handleClaim)
	mux.HandleFunc("POST "+pathResult, c.handleResult)
	mux.HandleFunc("POST "+pathFail, c.handleFail)
	srv := &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: serverReadHeaderTimeout,
		IdleTimeout:       serverIdleTimeout,
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	// Lease-expiry backstop: expiry is also checked on every request,
	// but with zero traffic (every worker dead) the ticker still
	// re-queues, so a later worker finds work immediately.
	tick := time.NewTicker(expiryInterval(c.opts.Lease))
	defer tick.Stop()

	var runErr error
loop:
	for {
		select {
		case <-c.done:
			c.mu.Lock()
			runErr = c.fatal
			c.mu.Unlock()
			if runErr == nil && c.opts.Linger > 0 {
				c.linger(ctx)
			}
			break loop
		case <-ctx.Done():
			runErr = ctx.Err()
			break loop
		case err := <-serveErr:
			runErr = fmt.Errorf("dist: coordinator server: %w", err)
			break loop
		case <-tick.C:
			c.mu.Lock()
			c.expireLocked(c.opts.Now())
			c.mu.Unlock()
		}
	}

	shutCtx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	srv.Shutdown(shutCtx)
	return runErr
}

// linger keeps the finished coordinator answering "done" so workers
// exit cleanly instead of dialing a dead address. It returns once no
// lease is open and a whole Linger has passed without one closing: a
// worker still executing a task speculation completed elsewhere, or
// retrying an upload, comes back to claim after its lease closes, so
// every closing restarts the wait.
func (c *Coordinator) linger(ctx context.Context) {
	c.mu.Lock()
	seen := c.closed
	c.mu.Unlock()
	t := time.NewTimer(c.opts.Linger)
	defer t.Stop()
	for {
		select {
		case <-t.C:
		case <-ctx.Done():
			return
		}
		c.mu.Lock()
		c.expireLocked(c.opts.Now())
		quiet := len(c.leases) == 0 && c.closed == seen
		seen = c.closed
		c.mu.Unlock()
		if quiet {
			return
		}
		t.Reset(c.opts.Linger)
	}
}

// expiryInterval picks the lease-expiry ticker period: a quarter lease,
// clamped to [5 ms, 1 s].
func expiryInterval(lease time.Duration) time.Duration {
	d := lease / 4
	if d < 5*time.Millisecond {
		d = 5 * time.Millisecond
	}
	if d > time.Second {
		d = time.Second
	}
	return d
}

// handlePlan serves the framed run description.
func (c *Coordinator) handlePlan(w http.ResponseWriter, r *http.Request) {
	info := planInfo{Kind: c.cfg.Kind, PlanHash: c.cfg.PlanHash, NumTasks: len(c.cfg.Payloads), Plan: c.cfg.Plan}
	b, err := json.Marshal(info)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Write(EncodeFrame(b))
}

// handleClaim hands out the lowest eligible task in the merge window,
// or tells the worker to wait, exit (done), or abort (fatal).
func (c *Coordinator) handleClaim(w http.ResponseWriter, r *http.Request) {
	now := c.opts.Now()
	c.mu.Lock()
	c.expireLocked(now)
	msg := c.claimLocked(now)
	c.mu.Unlock()
	b, err := json.Marshal(msg)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Write(EncodeFrame(b))
}

// claimLocked implements the claim policy: within the bounded window
// past the delivery frontier, prefer the lowest pending task whose
// backoff has elapsed; with none pending, hand out a speculative
// duplicate lease on the lowest straggler. Speculation is safe because
// results are byte-identical — the first result wins and the rest are
// discarded as duplicates.
func (c *Coordinator) claimLocked(now time.Time) claimMsg {
	if c.fatal != nil {
		return claimMsg{Fatal: c.fatal.Error()}
	}
	if c.frontier >= len(c.tasks) {
		return claimMsg{Done: true}
	}
	hi := min(c.frontier+c.opts.Window, len(c.tasks))
	grant := func(id int) claimMsg {
		t := &c.tasks[id]
		c.leaseSeq++
		c.leases[c.leaseSeq] = lease{task: id, deadline: now.Add(c.opts.Lease)}
		t.leased++
		t.specAt = now.Add(c.opts.SpeculateAfter)
		return claimMsg{ID: id, Lease: c.leaseSeq, Payload: c.cfg.Payloads[id], Claimed: true}
	}
	for id := c.frontier; id < hi; id++ {
		t := &c.tasks[id]
		if !t.done && t.leased == 0 && !t.readyAt.After(now) {
			return grant(id)
		}
	}
	if c.opts.SpeculateAfter > 0 {
		for id := c.frontier; id < hi; id++ {
			t := &c.tasks[id]
			if !t.done && t.leased == 1 && !t.specAt.After(now) {
				return grant(id)
			}
		}
	}
	return claimMsg{WaitMillis: waitHint}
}

// waitHint is the poll-again delay (milliseconds) suggested to an idle
// worker; workers jitter around it.
const waitHint = 100

// expireLocked closes every lease past its deadline: the worker
// holding it is presumed dead, and the attempt is charged to its task
// unless another lease already completed it. A task left with no lease
// becomes claimable again after a jittered exponential backoff; one
// exhausting MaxAttempts fails the whole run.
func (c *Coordinator) expireLocked(now time.Time) {
	var lids []int64
	for lid := range c.leases {
		lids = append(lids, lid)
	}
	slices.Sort(lids)
	for _, lid := range lids {
		l := c.leases[lid]
		if l.deadline.After(now) {
			continue
		}
		c.closeLeaseLocked(lid, l.task)
		c.chargeAttemptLocked(l.task, now, "lease expired (worker presumed dead)")
	}
}

// closeLeaseLocked closes lease lid if it is open on task id, reporting
// whether it was.
func (c *Coordinator) closeLeaseLocked(lid int64, id int) bool {
	if l, ok := c.leases[lid]; !ok || l.task != id {
		return false
	}
	delete(c.leases, lid)
	c.tasks[id].leased--
	c.closed++
	return true
}

// chargeAttemptLocked records one failed or expired attempt on a task
// and either re-queues it with backoff or fails the run.
func (c *Coordinator) chargeAttemptLocked(id int, now time.Time, why string) {
	t := &c.tasks[id]
	if t.done {
		return
	}
	t.attempts++
	t.lastErr = why
	if t.attempts >= c.opts.MaxAttempts {
		c.failLocked(fmt.Errorf("dist: task %d failed after %d attempts: %s", id, t.attempts, why))
		return
	}
	if t.leased == 0 {
		t.readyAt = now.Add(backoff(c.rng, c.opts.BackoffBase, c.opts.BackoffCap, t.attempts))
	}
}

// failLocked records the run-level failure and wakes Serve.
func (c *Coordinator) failLocked(err error) {
	if c.fatal != nil {
		return
	}
	c.fatal = err
	select {
	case <-c.done:
	default:
		close(c.done)
	}
}

// handleResult accepts one task's result and closes the lease it names:
// the first result for a task wins (every run's results are
// byte-identical, so duplicates — from speculation, retries, or a
// duplicated delivery — are simply discarded), the result is spooled to the journal before the task is
// marked done, and completed results are handed to Handle in strict
// task order.
func (c *Coordinator) handleResult(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.URL.Query().Get("id"))
	if err != nil || id < 0 || id >= len(c.tasks) {
		http.Error(w, "dist: bad task id", http.StatusBadRequest)
		return
	}
	// Lease IDs start at 1, so an upload naming none closes no lease;
	// its lease closes at expiry instead.
	lid, _ := strconv.ParseInt(r.URL.Query().Get("lease"), 10, 64)
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxFramePayload+1024))
	if err != nil {
		http.Error(w, "dist: short read: "+err.Error(), http.StatusBadRequest)
		return
	}
	payload, err := DecodeFrame(body)
	if err != nil {
		// A truncated or corrupt upload: reject so the worker retries.
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.fatal != nil {
		http.Error(w, c.fatal.Error(), http.StatusConflict)
		return
	}
	c.closeLeaseLocked(lid, id)
	t := &c.tasks[id]
	if t.done {
		w.Write([]byte("duplicate"))
		return
	}
	if c.jr != nil {
		if err := c.jr.put(id, payload); err != nil {
			c.failLocked(err)
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
	}
	t.done = true
	t.result = payload
	if err := c.deliverLocked(); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Write([]byte("ok"))
}

// deliverLocked advances the frontier, handing buffered results to
// Handle in task order. On completion it wakes Serve; on a Handle
// error it fails the run.
func (c *Coordinator) deliverLocked() error {
	for c.frontier < len(c.tasks) && c.tasks[c.frontier].done {
		t := &c.tasks[c.frontier]
		if err := c.cfg.Handle(c.frontier, t.result); err != nil {
			err = fmt.Errorf("dist: merging task %d: %w", c.frontier, err)
			c.failLocked(err)
			return err
		}
		t.result = nil
		c.frontier++
	}
	if c.frontier == len(c.tasks) && c.fatal == nil {
		select {
		case <-c.done:
		default:
			close(c.done)
		}
	}
	return nil
}

// handleFail releases a worker's lease after an execution error and
// charges the attempt.
func (c *Coordinator) handleFail(w http.ResponseWriter, r *http.Request) {
	var msg failMsg
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&msg); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if msg.ID < 0 || msg.ID >= len(c.tasks) {
		http.Error(w, "dist: bad task id", http.StatusBadRequest)
		return
	}
	now := c.opts.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closeLeaseLocked(msg.Lease, msg.ID) {
		c.chargeAttemptLocked(msg.ID, now, msg.Error)
	}
	w.Write([]byte("ok"))
}
