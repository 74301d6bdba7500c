package serve

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"filemig/internal/core"
)

// restoreClock pins Config.Now for the restore tests.
func restoreClock() time.Time { return time.Date(1992, 6, 1, 0, 0, 0, 0, time.UTC) }

// checkpointFixture ingests the golden trace's first forty records into a
// default-window server, three-hour batches in reverse so that every batch
// opens its own segment, and returns its checkpoint.
func checkpointFixture(t testing.TB) []byte {
	t.Helper()
	res := daemonFixture(t)
	s, err := NewServer(Config{Now: restoreClock})
	if err != nil {
		t.Fatal(err)
	}
	batches := cutBatches(res.Records[:40], 3*time.Hour)
	for i := len(batches) - 1; i >= 0; i-- {
		s.Ingest(batches[i])
	}
	if n := s.StatsNow().Segments; n < 2 {
		t.Fatalf("fixture checkpoint holds %d segments", n)
	}
	data, err := s.EncodeCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestMigdRestoreRejectsDedupWindowMismatch restores a checkpoint cut
// under the default eight-hour window into a four-hour server: the
// restore must fail, naming the window, and leave the server empty and
// reporting.
func TestMigdRestoreRejectsDedupWindowMismatch(t *testing.T) {
	data := checkpointFixture(t)
	s, err := NewServer(Config{Opts: core.Options{DedupWindow: 4 * time.Hour}, Now: restoreClock})
	if err != nil {
		t.Fatal(err)
	}
	err = s.RestoreCheckpoint(data)
	if err == nil || !strings.Contains(err.Error(), "dedup window") {
		t.Fatalf("restore across dedup windows: err = %v", err)
	}
	if st := s.StatsNow(); st.Records != 0 || st.Segments != 0 {
		t.Fatalf("refused restore left state behind: %+v", st)
	}
	if _, err := s.Report(); err != nil {
		t.Fatalf("report after a refused restore: %v", err)
	}
}

// FuzzMigdCheckpointRestore fuzzes checkpoint restore into a fresh
// server: arbitrary bytes must be refused cleanly or restored, never
// panic, a refusal must leave the server empty, and a restored server
// must report.
func FuzzMigdCheckpointRestore(f *testing.F) {
	data := checkpointFixture(f)
	f.Add(data)
	f.Add(data[:len(data)-5])
	f.Add([]byte(CheckpointHeader))
	f.Add([]byte{})
	flip := append([]byte(nil), data...)
	flip[len(flip)/2] ^= 0x40
	f.Add(flip)

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := NewServer(Config{Now: restoreClock})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.RestoreCheckpoint(data); err != nil {
			if st := s.StatsNow(); st.Records != 0 || st.Segments != 0 {
				t.Fatalf("refused checkpoint left state behind: %+v", st)
			}
			return
		}
		if _, err := s.Report(); err != nil {
			t.Fatalf("restored checkpoint, broken report: %v", err)
		}
	})
}

// TestMigdConcurrentCheckpoints runs Checkpoint from several goroutines
// at once, as the ingest cadence, POST /v1/checkpoint and a wall-clock
// ticker may: every call must succeed, and the directory must be left
// holding exactly the checkpoint of the server's state.
func TestMigdConcurrentCheckpoints(t *testing.T) {
	res := daemonFixture(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "migd.ckpt")
	s, err := NewServer(Config{CheckpointPath: path, Now: restoreClock})
	if err != nil {
		t.Fatal(err)
	}
	s.Ingest(res.Records[:200])

	const goroutines, rounds = 8, 20
	errs := make(chan error, goroutines*rounds)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if err := s.Checkpoint(); err != nil {
					errs <- err
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := s.StatsNow().Checkpoints; n != goroutines*rounds {
		t.Errorf("%d checkpoints counted, want %d", n, goroutines*rounds)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.EncodeCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("checkpoint file differs from the server's state")
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 {
		t.Errorf("checkpoint directory holds %d entries (err %v), want only the checkpoint", len(entries), err)
	}
}
