package checkpoint

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

func writes(s string) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := io.WriteString(w, s)
		return err
	}
}

// dirState lists dir's file names and returns latest.ckpt's bytes.
func dirState(t *testing.T, dir string) (names []string, latest string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	b, err := os.ReadFile(filepath.Join(dir, latestName))
	if err != nil {
		t.Fatal(err)
	}
	return names, string(b)
}

func TestSaveFile(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "snapshots") // created on demand

	path, err := SaveFile(dir, 7, writes("first"))
	if err != nil {
		t.Fatal(err)
	}
	if want := filepath.Join(dir, "checkpoint-000007.ckpt"); path != want {
		t.Fatalf("path = %q, want %q", path, want)
	}
	names, latest := dirState(t, dir)
	if !reflect.DeepEqual(names, []string{"checkpoint-000007.ckpt", latestName}) || latest != "first" {
		t.Fatalf("after first save: files %v, latest %q", names, latest)
	}

	// The benchmark saves twice at one window: both names must carry
	// the second save's bytes.
	if _, err := SaveFile(dir, 7, writes("second")); err != nil {
		t.Fatal(err)
	}
	snap, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	names, latest = dirState(t, dir)
	if !reflect.DeepEqual(names, []string{"checkpoint-000007.ckpt", latestName}) || latest != "second" || string(snap) != "second" {
		t.Fatalf("after re-save: files %v, snapshot %q, latest %q", names, snap, latest)
	}

	// A failing encode — after it has already written a partial frame —
	// leaves no temp file, no new snapshot and latest.ckpt untouched.
	boom := errors.New("boom")
	_, err = SaveFile(dir, 8, func(w io.Writer) error {
		io.WriteString(w, "torn")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the encode error", err)
	}
	names, latest = dirState(t, dir)
	if !reflect.DeepEqual(names, []string{"checkpoint-000007.ckpt", latestName}) || latest != "second" {
		t.Fatalf("after failed save: files %v, latest %q", names, latest)
	}

	// Temp files a killed process left behind do not block the next save.
	for _, stale := range []string{"checkpoint-000009.ckpt.tmp", latestName + ".tmp"} {
		if err := os.WriteFile(filepath.Join(dir, stale), []byte("stale"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := SaveFile(dir, 9, writes("third")); err != nil {
		t.Fatal(err)
	}
	names, latest = dirState(t, dir)
	if !reflect.DeepEqual(names, []string{"checkpoint-000007.ckpt", "checkpoint-000009.ckpt", latestName}) || latest != "third" {
		t.Fatalf("after save over stale temps: files %v, latest %q", names, latest)
	}
}

// TestSnapshotWindow: the window parsed from a SaveFile path is the one
// it was saved at, and no other file name parses.
func TestSnapshotWindow(t *testing.T) {
	dir := t.TempDir()
	for _, window := range []int{0, 12, 1234567} {
		path, err := SaveFile(dir, window, writes("x"))
		if err != nil {
			t.Fatal(err)
		}
		if got, err := SnapshotWindow(path); err != nil || got != window {
			t.Errorf("SnapshotWindow(%s) = %d, %v; want %d", path, got, err, window)
		}
	}
	for _, name := range []string{latestName, "checkpoint-12.ckpt", "checkpoint-000012.ckpt.tmp", "checkpoint-000012.ckptx"} {
		if w, err := SnapshotWindow(filepath.Join(dir, name)); err == nil {
			t.Errorf("SnapshotWindow(%s) = %d, want an error", name, w)
		}
	}
}

// TestCopyFile covers the fallback SaveFile takes where os.Link is
// refused.
func TestCopyFile(t *testing.T) {
	dir := t.TempDir()
	src, dst := filepath.Join(dir, "src"), filepath.Join(dir, "dst")
	if err := os.WriteFile(src, []byte("payload"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, []byte("a longer stale payload"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := copyFile(src, dst); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(dst); string(got) != "payload" {
		t.Fatalf("dst = %q", got)
	}
}
