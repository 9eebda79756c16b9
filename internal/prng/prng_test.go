package prng

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
)

// TestCountingSourceMatchesNative pins the zero-behavior-change
// contract: a rand.Rand over a counting source produces exactly the
// sequence rand.New(rand.NewSource(seed)) would, across every draw
// method the codebase uses.
func TestCountingSourceMatchesNative(t *testing.T) {
	const seed = 42
	native := rand.New(rand.NewSource(seed))
	counted, _ := New(seed)
	for i := 0; i < 5000; i++ {
		switch i % 6 {
		case 0:
			if a, b := native.Float64(), counted.Float64(); a != b {
				t.Fatalf("draw %d: Float64 %v != %v", i, a, b)
			}
		case 1:
			if a, b := native.NormFloat64(), counted.NormFloat64(); a != b {
				t.Fatalf("draw %d: NormFloat64 %v != %v", i, a, b)
			}
		case 2:
			if a, b := native.Intn(97), counted.Intn(97); a != b {
				t.Fatalf("draw %d: Intn %v != %v", i, a, b)
			}
		case 3:
			if a, b := native.Int63(), counted.Int63(); a != b {
				t.Fatalf("draw %d: Int63 %v != %v", i, a, b)
			}
		case 4:
			if a, b := native.Uint64(), counted.Uint64(); a != b {
				t.Fatalf("draw %d: Uint64 %v != %v", i, a, b)
			}
		case 5:
			if a, b := native.ExpFloat64(), counted.ExpFloat64(); a != b {
				t.Fatalf("draw %d: ExpFloat64 %v != %v", i, a, b)
			}
		}
	}
}

// TestStateRoundTrip is the checkpoint contract: capture State mid-
// stream, rebuild from it, and the continuation is bit-identical to the
// uninterrupted stream.
func TestStateRoundTrip(t *testing.T) {
	for _, mid := range []int{0, 1, 7, 1000, 12345} {
		orig, src := New(9001)
		for i := 0; i < mid; i++ {
			switch i % 3 {
			case 0:
				orig.Float64()
			case 1:
				orig.NormFloat64()
			case 2:
				orig.Intn(11)
			}
		}
		st := src.State()
		resumed, rsrc := FromState(st)
		if got := rsrc.State(); got != st {
			t.Fatalf("mid=%d: restored state %+v, want %+v", mid, got, st)
		}
		for i := 0; i < 2000; i++ {
			a, b := orig.Float64(), resumed.Float64()
			if math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("mid=%d draw %d: %v != %v", mid, i, a, b)
			}
			if i%5 == 0 {
				if x, y := orig.NormFloat64(), resumed.NormFloat64(); x != y {
					t.Fatalf("mid=%d draw %d: norm %v != %v", mid, i, x, y)
				}
			}
		}
	}
}

// TestRestoreInPlace pins Source.Restore on a live source.
func TestRestoreInPlace(t *testing.T) {
	orig, src := New(7)
	for i := 0; i < 500; i++ {
		orig.Uint64()
	}
	st := src.State()
	want := orig.Uint64()

	other := NewSource(999)
	rand.New(other).Float64()
	other.Restore(st)
	if got := rand.New(other).Uint64(); got != want {
		t.Fatalf("restored draw %d, want %d", got, want)
	}
}

// TestRestoreSkipMatchesNative: a source restored at any step count —
// around the recurrence's lags, where the skip's blocks are cut, and
// far past them — continues exactly as a stock math/rand stream of the
// same seed that has drawn that many values.
func TestRestoreSkipMatchesNative(t *testing.T) {
	for _, seed := range []int64{0, 1, 42, -7, 1 << 40} {
		for _, steps := range []uint64{0, 1, 272, 273, 274, 606, 607, 608, 1_000_003} {
			native := rand.New(rand.NewSource(seed))
			for i := uint64(0); i < steps; i++ {
				native.Uint64()
			}
			restored, src := FromState(State{Seed: seed, Steps: steps})
			for i := 0; i < 2000; i++ {
				var a, b uint64
				if i%2 == 0 {
					a, b = native.Uint64(), restored.Uint64()
				} else {
					a, b = uint64(native.Int63()), uint64(restored.Int63())
				}
				if a != b {
					t.Fatalf("seed %d restored at %d: draw %d is %d, native %d", seed, steps, i, b, a)
				}
			}
			if got := src.State(); got != (State{Seed: seed, Steps: steps + 2000}) {
				t.Fatalf("seed %d restored at %d: state %+v after 2000 draws", seed, steps, got)
			}
		}
	}
}

// TestRandReadUnused: Rand.Read buffers bytes inside the Rand, where a
// Source's (seed, steps) cannot see them, so no program file may call
// it. Every call of a Read method in a file that imports math/rand is
// reported; a file that needs io.Reader.Read beside math/rand should
// move one of them elsewhere.
func TestRandReadUnused(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir("../..", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		imports := false
		for _, imp := range f.Imports {
			imports = imports || imp.Path.Value == `"math/rand"`
		}
		if !imports {
			return nil
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Read" {
					t.Errorf("%s: calls Read in a file that imports math/rand", fset.Position(call.Pos()))
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// BenchmarkRestore measures a restore of a million-draw stream.
func BenchmarkRestore(b *testing.B) {
	src := NewSource(1)
	for i := 0; i < b.N; i++ {
		src.Restore(State{Seed: 1, Steps: 1_000_000})
	}
}
