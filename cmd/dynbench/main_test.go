package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestPaperGolden pins dynbench's output byte for byte: Tables 2 and 3
// (plain and merged), the section 5 register-actions result and the
// Figure 1 walk-through. Every figure is a modeled cycle or instruction
// count, so any difference is a change in what the compiler, stitcher or
// cycle model does. Regenerate after an intended change with
// `go run ./cmd/dynbench > cmd/dynbench/testdata/paper.golden`.
func TestPaperGolden(t *testing.T) {
	var got bytes.Buffer
	if err := render(&got); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "paper.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl := bytes.Split(got.Bytes(), []byte("\n"))
	wl := bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w []byte
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if !bytes.Equal(g, w) {
			t.Fatalf("output differs from testdata/paper.golden at line %d:\n got: %q\nwant: %q", i+1, g, w)
		}
	}
}
