package trace

import (
	"bytes"
	"testing"
)

// fuzzTraceReader is the property FuzzTraceReader checks on the ASCII v1
// codec: data either fails to decode with an error, or decodes into
// records that re-encode through Writer (at the decoded epoch) and
// decode again to the same records.
func fuzzTraceReader(t *testing.T, data []byte) (accepted bool) {
	r := NewReader(bytes.NewReader(data))
	recs, err := Collect(r)
	if err != nil {
		return false // rejected input is fine; panicking is not
	}
	var enc bytes.Buffer
	w := NewWriterEpoch(&enc, r.epoch)
	for i := range recs {
		if err := w.Write(&recs[i]); err != nil {
			t.Fatalf("accepted input does not re-encode: record %d: %v", i, err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	again, err := Collect(NewReader(bytes.NewReader(enc.Bytes())))
	if err != nil {
		t.Fatalf("re-encoded trace does not decode: %v\n%s", err, enc.Bytes())
	}
	requireSameRecords(t, again, recs, "decode → encode → decode")
	return true
}

// traceReaderSeed is one fuzzer starting point and whether the reader
// must accept it.
type traceReaderSeed struct {
	data   []byte
	accept bool
}

// traceReaderSeeds are the fuzzer's starting points: a valid trace, its
// damaged variants, and the grammar's edge cases.
func traceReaderSeeds(t testing.TB) []traceReaderSeed {
	var valid bytes.Buffer
	if err := WriteAll(&valid, sampleRecords()); err != nil {
		t.Fatal(err)
	}
	v := valid.Bytes()
	const hdr = "#filemig-trace v1 epoch=0\n"
	return []traceReaderSeed{
		{v, true},
		{nil, true},
		{[]byte("#filemig-trace v1 epoch=654739200\n"), true},         // header only
		{[]byte(hdr + "3 disk cray RCEnofile 1 2 3 = /a /b\n"), true}, // same-user flag first
		{v[:len(v)/2], false}, // torn mid-line
		{bytes.Replace(v, []byte(" R"), []byte(" X"), 1), false},                  // bad flags
		{[]byte("#filemig-trace v1 epoch=zz\n"), false},                           // bad epoch
		{[]byte("0 disk cray R 0 0 1 7 /a /b\n"), false},                          // no header
		{[]byte(hdr + "99999999999999999999 disk cray R 0 0 1 7 /a /b\n"), false}, // delta overflow
		{[]byte(hdr + "0\tdisk cray W 0 0 1 7 /a /b extra\n"), false},             // surplus field
		// Writer refuses the zero time, so the reader must too.
		{[]byte("#filemig-trace v1 epoch=-62135596800\n0 disk cray R 0 0 1 7 /a /b\n"), false},
	}
}

// FuzzTraceReader is the robustness gate for the ASCII v1 reader:
// corrupt input must return an error and never panic, and any input it
// accepts must round-trip through Writer to the same records.
func FuzzTraceReader(f *testing.F) {
	for _, seed := range traceReaderSeeds(f) {
		f.Add(seed.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzTraceReader(t, data)
	})
}

// TestTraceReaderSeeds keeps the seed set meaningful: every seed holds
// the fuzz property, the valid ones are accepted and the damaged ones
// rejected.
func TestTraceReaderSeeds(t *testing.T) {
	for i, seed := range traceReaderSeeds(t) {
		if got := fuzzTraceReader(t, seed.data); got != seed.accept {
			t.Errorf("seed %d: accepted = %v, want %v", i, got, seed.accept)
		}
	}
}
