package serve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net/http"
	"time"

	"filemig/internal/core"
	"filemig/internal/dist"
)

// The migd checkpoint is a header line followed by one dist wire frame
// per segment, in trace order. Each frame's payload is the segment's
// record-time bounds (two signed varints of UnixNano — the s1 snapshot
// does not carry error-record bounds, so the checkpoint does) followed
// by the segment's s1 snapshot. The CRC on every frame means a torn or
// bit-flipped checkpoint fails loudly at restore instead of resuming
// from silently wrong state; segments untouched since the previous
// checkpoint reuse their cached frame bytes and are never re-serialized.

// CheckpointHeader opens every migd checkpoint file.
const CheckpointHeader = "#migd-checkpoint c1\n"

// EncodeCheckpoint serializes the daemon's full segment state in the
// checkpoint format.
func (s *Server) EncodeCheckpoint() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out bytes.Buffer
	out.WriteString(CheckpointHeader)
	for i, sg := range s.orderedSegments() {
		if sg.dirty || sg.enc == nil {
			first, last := sg.p.Bounds()
			payload := binary.AppendVarint(nil, first.UnixNano())
			payload = binary.AppendVarint(payload, last.UnixNano())
			var snap bytes.Buffer
			if err := sg.p.WriteSnapshot(&snap); err != nil {
				return nil, fmt.Errorf("serve: checkpoint segment %d: %w", i, err)
			}
			sg.enc = dist.EncodeFrame(append(payload, snap.Bytes()...))
			sg.dirty = false
		}
		out.Write(sg.enc)
	}
	return out.Bytes(), nil
}

// Checkpoint writes the daemon's state to Config.CheckpointPath,
// atomically: the bytes land in a uniquely named temporary sibling
// first and are renamed over the target, so a crash mid-write leaves the
// previous checkpoint intact. Checkpoints are serialized from encode to
// rename — the ingest cadence, POST /v1/checkpoint and a caller's timer
// may all run one at once — so an older state never replaces a newer.
func (s *Server) Checkpoint() error {
	if s.cfg.CheckpointPath == "" {
		return errors.New("serve: no checkpoint path configured")
	}
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	data, err := s.EncodeCheckpoint()
	if err != nil {
		return err
	}
	if err := dist.WriteFileAtomic(s.cfg.CheckpointPath, data); err != nil {
		return fmt.Errorf("serve: checkpoint: %w", err)
	}
	s.checkpoints.Add(1)
	s.sinceCkpt.Store(0)
	return nil
}

// maybeCheckpoint runs the record-count checkpoint cadence after a
// batch of n records was applied.
func (s *Server) maybeCheckpoint(n int64) {
	if s.cfg.CheckpointEvery <= 0 || s.cfg.CheckpointPath == "" {
		return
	}
	if s.sinceCkpt.Add(n) < s.cfg.CheckpointEvery {
		return
	}
	if err := s.Checkpoint(); err != nil {
		s.logf("migd: cadence checkpoint failed: %v", err)
	}
}

// RestoreCheckpoint loads a checkpoint produced by EncodeCheckpoint
// into an empty server, decoding every segment with the s1 snapshot
// codec (nothing is replayed until a report folds them) and rebuilding
// the live per-file table. The restored daemon's report is
// byte-identical to the pre-restart daemon's, and ingest continues from
// where the checkpoint was cut. A checkpoint whose segments were cut
// under a different dedup window than the server's is rejected whole,
// before any state is touched: its segments could never fold into this
// server's reports.
func (s *Server) RestoreCheckpoint(data []byte) error {
	if s.records.Load() != 0 {
		return errors.New("serve: restore into a non-empty server")
	}
	if len(data) < len(CheckpointHeader) || string(data[:len(CheckpointHeader)]) != CheckpointHeader {
		return errors.New("serve: not a migd checkpoint (bad header)")
	}
	rest := data[len(CheckpointHeader):]
	window := core.NewPartial(s.cfg.Opts).DedupWindow() // the window this server's own segments carry
	var segs []*segment
	for i := 0; len(rest) > 0; i++ {
		payload, r, err := dist.NextFrame(rest)
		if err != nil {
			return fmt.Errorf("serve: restore segment %d: %w", i, err)
		}
		sg, err := decodeSegment(payload)
		if err != nil {
			return fmt.Errorf("serve: restore segment %d: %w", i, err)
		}
		if w := sg.p.DedupWindow(); w != window {
			return fmt.Errorf("serve: restore segment %d: dedup window %v disagrees with the server's %v", i, w, window)
		}
		// Cache the frame exactly as read: an untouched restored segment
		// re-checkpoints byte-identically without re-serializing.
		sg.enc = append([]byte(nil), rest[:len(rest)-len(r)]...)
		sg.seq = s.segSeq.Add(1)
		segs = append(segs, sg)
		rest = r
	}

	s.mu.Lock()
	for _, sg := range segs {
		first, _ := sg.p.Bounds()
		sh := s.getShard(s.shardKey(first))
		sh.segs = append(sh.segs, sg)
		sh.noteBounds(sg)
		s.segCount.Add(1)
		s.records.Add(sg.p.Records())
		s.errRecords.Add(sg.p.Errors())
	}
	s.mu.Unlock()

	s.filesMu.Lock()
	for _, sg := range segs {
		sg.p.VisitRefs(s.observeFile)
	}
	s.filesMu.Unlock()
	return nil
}

// decodeSegment rebuilds one segment from a checkpoint frame payload.
func decodeSegment(payload []byte) (*segment, error) {
	firstNs, n := binary.Varint(payload)
	if n <= 0 {
		return nil, errors.New("bad first-bound varint")
	}
	payload = payload[n:]
	lastNs, n := binary.Varint(payload)
	if n <= 0 {
		return nil, errors.New("bad last-bound varint")
	}
	payload = payload[n:]
	p, err := core.ReadSnapshot(bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	var first, last time.Time
	if firstNs != 0 {
		first = time.Unix(0, firstNs).UTC()
	}
	if lastNs != 0 {
		last = time.Unix(0, lastNs).UTC()
	}
	p.SetBounds(first, last)
	return &segment{p: p}, nil
}

// handleCheckpoint serves POST /v1/checkpoint: an explicit checkpoint,
// regardless of the cadence.
func (s *Server) handleCheckpoint(w http.ResponseWriter, req *http.Request) {
	if err := s.Checkpoint(); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, map[string]int64{
		"segments":    s.segCount.Load(),
		"checkpoints": s.checkpoints.Load(),
	})
}
