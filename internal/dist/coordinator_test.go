package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock is a hand-advanced coordinator clock, so lease expiry,
// backoff, and speculation are tested without sleeping.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)}
}

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

func (f *fakeClock) Advance(d time.Duration) {
	f.mu.Lock()
	f.now = f.now.Add(d)
	f.mu.Unlock()
}

// testCoordinator builds a coordinator over n one-byte payloads whose
// Handle records delivery order.
func testCoordinator(t *testing.T, n int, opts Options) (*Coordinator, *[]int) {
	t.Helper()
	payloads := make([][]byte, n)
	for i := range payloads {
		payloads[i] = []byte{byte(i)}
	}
	var delivered []int
	c, err := NewCoordinator(Config{
		Kind:     "unit/v1",
		PlanHash: "unit-hash",
		Plan:     []byte("{}"),
		Payloads: payloads,
		Handle: func(id int, result []byte) error {
			delivered = append(delivered, id)
			return nil
		},
	}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return c, &delivered
}

// claim performs one claim through the HTTP handler.
func claim(t *testing.T, c *Coordinator) claimMsg {
	t.Helper()
	rec := httptest.NewRecorder()
	c.handleClaim(rec, httptest.NewRequest("POST", pathClaim, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("claim: HTTP %d: %s", rec.Code, rec.Body)
	}
	payload, err := DecodeFrame(rec.Body.Bytes())
	if err != nil {
		t.Fatalf("claim: %v", err)
	}
	var msg claimMsg
	if err := json.Unmarshal(payload, &msg); err != nil {
		t.Fatalf("claim: %v", err)
	}
	return msg
}

// postResult performs one framed result upload, returning the HTTP
// status and body.
func postResult(c *Coordinator, id int, result []byte) (int, string) {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("POST", fmt.Sprintf("%s?id=%d", pathResult, id), bytes.NewReader(EncodeFrame(result)))
	c.handleResult(rec, req)
	return rec.Code, rec.Body.String()
}

// postFail reports one execution failure through the HTTP handler.
func postFail(t *testing.T, c *Coordinator, id int, lease int64, msg string) {
	t.Helper()
	body, err := json.Marshal(failMsg{ID: id, Lease: lease, Error: msg})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	c.handleFail(rec, httptest.NewRequest("POST", pathFail, bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("fail report: HTTP %d: %s", rec.Code, rec.Body)
	}
}

func TestClaimWindowBoundsBuffering(t *testing.T) {
	clk := newFakeClock()
	c, delivered := testCoordinator(t, 5, Options{Now: clk.Now, Window: 2, Lease: time.Minute})

	first, second := claim(t, c), claim(t, c)
	if !first.Claimed || first.ID != 0 || !second.Claimed || second.ID != 1 {
		t.Fatalf("first claims granted %+v, %+v; want tasks 0 and 1", first, second)
	}
	// Task 2 is outside the window until the frontier moves.
	if msg := claim(t, c); msg.Claimed || msg.Done || msg.WaitMillis <= 0 {
		t.Fatalf("claim past the window: %+v; want a wait hint", msg)
	}
	// Completing task 1 buffers it (frontier still at 0): window unchanged.
	if code, _ := postResult(c, 1, []byte("r1")); code != http.StatusOK {
		t.Fatalf("result 1: HTTP %d", code)
	}
	if msg := claim(t, c); msg.Claimed {
		t.Fatalf("window opened before the frontier moved: %+v", msg)
	}
	// Completing task 0 delivers 0 and 1 in order and opens the window.
	if code, _ := postResult(c, 0, []byte("r0")); code != http.StatusOK {
		t.Fatalf("result 0: HTTP %d", code)
	}
	if got := fmt.Sprint(*delivered); got != "[0 1]" {
		t.Fatalf("delivered %s, want [0 1]", got)
	}
	if msg := claim(t, c); !msg.Claimed || msg.ID != 2 {
		t.Fatalf("claim after frontier advance: %+v; want task 2", msg)
	}
}

func TestLeaseExpiryRequeues(t *testing.T) {
	clk := newFakeClock()
	c, delivered := testCoordinator(t, 1, Options{
		Now: clk.Now, Lease: 10 * time.Second,
		BackoffBase: 100 * time.Millisecond, BackoffCap: 100 * time.Millisecond,
	})

	first := claim(t, c)
	if !first.Claimed {
		t.Fatalf("first claim not granted: %+v", first)
	}
	if msg := claim(t, c); msg.Claimed {
		t.Fatal("leased task claimable twice without expiry or speculation")
	}
	// Past the lease the task is re-queued, claimable after its backoff.
	clk.Advance(11 * time.Second)
	if msg := claim(t, c); msg.Claimed {
		t.Fatalf("expired task claimable before its backoff elapsed: %+v", msg)
	}
	clk.Advance(time.Second)
	second := claim(t, c)
	if !second.Claimed || second.ID != 0 {
		t.Fatalf("expired task not re-granted: %+v", second)
	}
	if second.Lease == first.Lease {
		t.Fatal("re-grant reused the dead lease ID")
	}
	// A result from the presumed-dead worker's lease still lands: first
	// result wins regardless of which lease produced it.
	if code, _ := postResult(c, 0, []byte("late")); code != http.StatusOK {
		t.Fatalf("late result: HTTP %d", code)
	}
	if got := fmt.Sprint(*delivered); got != "[0]" {
		t.Fatalf("delivered %s, want [0]", got)
	}
}

func TestSpeculationDuplicatesStragglersOnce(t *testing.T) {
	clk := newFakeClock()
	c, delivered := testCoordinator(t, 1, Options{
		Now: clk.Now, Lease: time.Hour, SpeculateAfter: 5 * time.Second,
	})
	first := claim(t, c)
	if !first.Claimed {
		t.Fatalf("claim not granted: %+v", first)
	}
	if msg := claim(t, c); msg.Claimed {
		t.Fatal("speculative duplicate granted before SpeculateAfter")
	}
	clk.Advance(6 * time.Second)
	spec := claim(t, c)
	if !spec.Claimed || spec.ID != 0 || spec.Lease == first.Lease {
		t.Fatalf("straggler not speculatively re-granted: %+v", spec)
	}
	// At two live leases the straggler is not triplicated.
	clk.Advance(6 * time.Second)
	if msg := claim(t, c); msg.Claimed {
		t.Fatalf("straggler granted a third lease: %+v", msg)
	}
	// Both workers answer; the first result wins, the second is a no-op.
	if code, _ := postResult(c, 0, []byte("same bytes")); code != http.StatusOK {
		t.Fatal("first result rejected")
	}
	code, body := postResult(c, 0, []byte("same bytes"))
	if code != http.StatusOK || body != "duplicate" {
		t.Fatalf("second result: HTTP %d %q, want 200 \"duplicate\"", code, body)
	}
	if got := fmt.Sprint(*delivered); got != "[0]" {
		t.Fatalf("delivered %s, want exactly [0]", got)
	}
	if msg := claim(t, c); !msg.Done {
		t.Fatalf("claim after completion: %+v, want done", msg)
	}
}

func TestFailReportRequeuesAndMaxAttemptsFailsRun(t *testing.T) {
	clk := newFakeClock()
	c, _ := testCoordinator(t, 1, Options{
		Now: clk.Now, Lease: time.Minute, MaxAttempts: 2,
		BackoffBase: 10 * time.Millisecond, BackoffCap: 10 * time.Millisecond,
	})
	first := claim(t, c)
	postFail(t, c, first.ID, first.Lease, "exec blew up")
	clk.Advance(time.Second)
	second := claim(t, c)
	if !second.Claimed {
		t.Fatalf("failed task not re-granted: %+v", second)
	}
	// A stale fail report against the dead lease is ignored.
	postFail(t, c, first.ID, first.Lease, "stale")
	if msg := claim(t, c); msg.Fatal != "" {
		t.Fatalf("stale fail report charged an attempt: %+v", msg)
	}
	// The second real failure exhausts MaxAttempts and fails the run.
	postFail(t, c, second.ID, second.Lease, "exec blew up again")
	msg := claim(t, c)
	if msg.Fatal == "" || !strings.Contains(msg.Fatal, "after 2 attempts") {
		t.Fatalf("claim after exhaustion: %+v, want fatal", msg)
	}
	if code, _ := postResult(c, 0, []byte("too late")); code != http.StatusConflict {
		t.Fatalf("result on a failed run: HTTP %d, want 409", code)
	}
}

func TestResultRejectsDamagedUploadsAndBadIDs(t *testing.T) {
	clk := newFakeClock()
	c, delivered := testCoordinator(t, 1, Options{Now: clk.Now})
	rec := httptest.NewRecorder()
	c.handleResult(rec, httptest.NewRequest("POST", pathResult+"?id=0",
		bytes.NewReader(EncodeFrame([]byte("x"))[:8])))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("truncated upload: HTTP %d, want 400", rec.Code)
	}
	if code, _ := postResult(c, 7, []byte("x")); code != http.StatusBadRequest {
		t.Fatalf("out-of-range id: HTTP %d, want 400", code)
	}
	if len(*delivered) != 0 {
		t.Fatalf("damaged uploads delivered results: %v", *delivered)
	}
}

func TestJournalResumeSkipsCompletedTasks(t *testing.T) {
	clk := newFakeClock()
	dir := t.TempDir()
	opts := Options{Now: clk.Now, JournalDir: dir}

	c1, d1 := testCoordinator(t, 3, opts)
	if c1.Resumed() != 0 {
		t.Fatalf("fresh run resumed %d tasks", c1.Resumed())
	}
	// Complete tasks 0 and 2, then "crash": 2 stays buffered past the
	// frontier and both are spooled.
	for _, id := range []int{0, 2} {
		if code, _ := postResult(c1, id, []byte(fmt.Sprintf("result-%d", id))); code != http.StatusOK {
			t.Fatalf("result %d rejected", id)
		}
	}
	if got := fmt.Sprint(*d1); got != "[0]" {
		t.Fatalf("pre-crash delivery %s, want [0]", got)
	}

	// Corrupt spools must be re-executed, not merged: tear task 2's file.
	spool := filepath.Join(dir, spoolName(2))
	b, err := os.ReadFile(spool)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(spool, b[:len(b)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	c2, d2 := testCoordinator(t, 3, opts)
	if c2.Resumed() != 1 {
		t.Fatalf("resumed %d tasks, want 1 (task 0 valid, task 2 torn)", c2.Resumed())
	}
	if got := fmt.Sprint(*d2); got != "[0]" {
		t.Fatalf("resume delivery %s, want [0]", got)
	}
	if msg := claim(t, c2); !msg.Claimed || msg.ID != 1 {
		t.Fatalf("first claim after resume: %+v, want task 1", msg)
	}
	if msg := claim(t, c2); !msg.Claimed || msg.ID != 2 {
		t.Fatalf("second claim after resume: %+v, want torn task 2", msg)
	}
	for _, id := range []int{1, 2} {
		if code, _ := postResult(c2, id, []byte(fmt.Sprintf("result-%d", id))); code != http.StatusOK {
			t.Fatalf("result %d rejected", id)
		}
	}
	if got := fmt.Sprint(*d2); got != "[0 1 2]" {
		t.Fatalf("final delivery %s, want [0 1 2]", got)
	}
}

func TestJournalRefusesForeignRun(t *testing.T) {
	clk := newFakeClock()
	dir := t.TempDir()
	if _, err := NewCoordinator(Config{
		Kind: "unit/v1", PlanHash: "hash-a", Plan: []byte("{}"),
		Payloads: [][]byte{{0}}, Handle: func(int, []byte) error { return nil },
	}, Options{Now: clk.Now, JournalDir: dir}); err != nil {
		t.Fatal(err)
	}
	_, err := NewCoordinator(Config{
		Kind: "unit/v1", PlanHash: "hash-b", Plan: []byte("{}"),
		Payloads: [][]byte{{0}}, Handle: func(int, []byte) error { return nil },
	}, Options{Now: clk.Now, JournalDir: dir})
	if err == nil || !strings.Contains(err.Error(), "different run") {
		t.Fatalf("foreign journal accepted: %v", err)
	}
}

func TestCoordinatorRequiresClock(t *testing.T) {
	_, err := NewCoordinator(Config{
		Kind: "unit/v1", PlanHash: "h", Plan: []byte("{}"),
		Payloads: [][]byte{{0}}, Handle: func(int, []byte) error { return nil },
	}, Options{})
	if err == nil || !strings.Contains(err.Error(), "Now") {
		t.Fatalf("clock-free coordinator accepted: %v", err)
	}
}

// TestServeCutsOffStalledHeaders: a client that connects and never
// finishes its request headers is disconnected once
// serverReadHeaderTimeout passes, rather than holding a connection (and
// its goroutine) for as long as it likes.
func TestServeCutsOffStalledHeaders(t *testing.T) {
	t.Parallel()
	c, _ := testCoordinator(t, 1, Options{Now: newFakeClock().Now})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- c.Serve(ctx, ln) }()
	defer func() {
		cancel()
		<-served
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	begin := time.Now()
	if _, err := io.WriteString(conn, "POST "+pathClaim+" HTTP/1.1\r\nHost: coordinator\r\n"); err != nil {
		t.Fatal(err)
	}
	const slack = 3 * time.Second
	conn.SetReadDeadline(begin.Add(serverReadHeaderTimeout + slack))
	n, err := conn.Read(make([]byte, 1))
	elapsed := time.Since(begin)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("stalled client still connected after %v (bound %v)", elapsed, serverReadHeaderTimeout)
	}
	if err != io.EOF || n != 0 {
		t.Fatalf("stalled client read (%d bytes, %v), want the server to close the connection", n, err)
	}
	if elapsed < serverReadHeaderTimeout/2 {
		t.Fatalf("connection closed after %v, before the header timeout could apply", elapsed)
	}
}
