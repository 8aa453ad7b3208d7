package main

import (
	"bytes"
	"io/fs"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"cyclops/internal/optics"
)

// TestLayerTableCoversInternal holds the layer table to the source tree:
// every non-test .go file under internal/ maps to exactly one layer (by
// its directory or by its own file entry, never both), so a new file
// cannot fall silently into the unmapped bucket; and every table entry
// names an existing file or directory and a ledger layer.
func TestLayerTableCoversInternal(t *testing.T) {
	root := filepath.Join("..", "internal")
	known := map[string]bool{}
	for _, l := range layers {
		known[l] = true
	}
	used := map[string]bool{}
	files := 0
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		pkg, file := filepath.ToSlash(filepath.Dir(rel)), filepath.Base(rel)
		byFile, fileOK := layerTable[pkg+"/"+file]
		byDir, dirOK := layerTable[pkg]
		switch {
		case fileOK && dirOK:
			t.Errorf("internal/%s/%s maps twice: file entry %q and directory entry %q", pkg, file, byFile, byDir)
		case !fileOK && !dirOK:
			t.Errorf("internal/%s/%s has no layer: add it to layerTable", pkg, file)
		case fileOK:
			used[pkg+"/"+file] = true
		default:
			used[pkg] = true
		}
		files++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files == 0 {
		t.Fatal("found no source files under ../internal")
	}
	for key, layer := range layerTable {
		if !used[key] {
			t.Errorf("layerTable entry %q matches no source file", key)
		}
		if !known[layer] {
			t.Errorf("layerTable entry %q names unknown layer %q", key, layer)
		}
	}
}

func TestFrameLayer(t *testing.T) {
	for _, c := range []struct{ fn, file, want string }{
		{"cyclops/internal/optics.CaptureFraction", "cyclops/internal/optics/gaussian.go", "optics"},
		{"cyclops/internal/core.(*runLoop).step", "/src/cyclops/internal/core/run.go", "core.loop"},
		{"cyclops/internal/sim.runShard", "cyclops/internal/sim/corpus.go", "sim.engine"},
		{"cyclops/internal/parallel.Map[...].func1", "cyclops/internal/parallel/parallel.go", "parallel"},
		{"cyclops/internal/core.newStage", "cyclops/internal/core/stage.go", unmapped},
		{"math.Exp", "math/exp.go", ""},
		{"cyclops.HandHeld", "cyclops/cyclops.go", ""},
	} {
		if got, _ := frameLayer(c.fn, c.file); got != c.want {
			t.Errorf("frameLayer(%q, %q) = %q, want %q", c.fn, c.file, got, c.want)
		}
	}
}

// TestFoldProfile profiles a loop over the optical plant's quadrature and
// checks that the decoded profile charges it to optics.
func TestFoldProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profile unavailable: %v", err)
	}
	var sink float64
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		sink += optics.CaptureFraction(8e-3, 3e-3, 2e-3)
	}
	pprof.StopCPUProfile()
	f, err := foldProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if f.total < 5 {
		t.Skipf("only %d profiling ticks (sink %v)", f.total, sink)
	}
	if share := float64(f.samples["optics"]) / float64(f.total); share < 0.5 {
		t.Errorf("optics holds %.2f of %d ticks, want most: %v", share, f.total, f.samples)
	}
	if f.ns["optics"] <= 0 {
		t.Errorf("optics charged %d ns", f.ns["optics"])
	}
}
