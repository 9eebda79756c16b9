package checkpoint

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

const latestName = "latest.ckpt"

// saveBuffer is SaveFile's write buffer: the store section streams in
// 16 KiB pieces, which it gathers into a few large writes.
const saveBuffer = 64 << 10

// SaveFile writes one snapshot into dir as checkpoint-<window>.ckpt and
// refreshes dir/latest.ckpt to the same bytes, returning the snapshot
// path. Both names change atomically (temp file + rename), so a crash
// or a failing encode never leaves a half-written file under either
// name. The fleet service is its one caller: it writes every snapshot
// file, on demand and on its auto-checkpoint cadence.
//
// encode's bytes are written once, through a 64 KiB buffer, so a
// snapshot that streams a section in small pieces makes few system
// calls:
// latest.ckpt is a hard link to the new snapshot, and only where the
// filesystem refuses links is it a streamed copy.
func SaveFile(dir string, window int, encode func(io.Writer) error) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, snapshotName(window))
	if err := replaceFile(path, func(tmp string) error {
		f, err := os.Create(tmp)
		if err != nil {
			return err
		}
		w := bufio.NewWriterSize(f, saveBuffer)
		if err := encode(w); err != nil {
			f.Close()
			return err
		}
		if err := w.Flush(); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}); err != nil {
		return "", err
	}
	if err := replaceFile(filepath.Join(dir, latestName), func(tmp string) error {
		if os.Link(path, tmp) == nil {
			return nil
		}
		return copyFile(path, tmp)
	}); err != nil {
		return "", err
	}
	return path, nil
}

// snapshotName is SaveFile's file name for the snapshot of one window.
func snapshotName(window int) string { return fmt.Sprintf("checkpoint-%06d.ckpt", window) }

// SnapshotWindow returns the window a SaveFile snapshot holds, read
// from its file name.
func SnapshotWindow(path string) (int, error) {
	name := filepath.Base(path)
	var window int
	if _, err := fmt.Sscanf(name, "checkpoint-%d.ckpt", &window); err != nil || snapshotName(window) != name {
		return 0, fmt.Errorf("checkpoint: %s is not a snapshot file name", name)
	}
	return window, nil
}

// replaceFile has fill produce path+".tmp" and renames it over path;
// when either step fails the temp file is removed and path is untouched.
func replaceFile(path string, fill func(tmp string) error) error {
	tmp := path + ".tmp"
	// A temp file left by a killed process would make os.Link fail.
	if err := os.Remove(tmp); err != nil && !os.IsNotExist(err) {
		return err
	}
	if err := fill(tmp); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
