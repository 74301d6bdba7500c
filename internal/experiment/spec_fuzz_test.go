package experiment

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzSpecParse is the robustness gate for the spec parser: arbitrary
// bytes must be rejected by Parse or pass through Normalize and Validate
// to a verdict, never a panic. It is seeded with the committed example
// specs.
func FuzzSpecParse(f *testing.F) {
	for _, name := range []string{"quickgrid.json", "moderngrid.json", "tournament.json"} {
		data, err := os.ReadFile(filepath.Join("..", "..", "testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(bytes.NewReader(data))
		if err != nil {
			return
		}
		n := s.Normalize()
		_ = n.Validate()
	})
}
