package qlog

import (
	"bufio"
	"fmt"
	"os"

	"dnsttl/internal/obs"
)

// rotatingWriter is a buffered, size-rotated file writer used only by the
// Logger's consumer goroutine (single-threaded, so no locking). Rotation
// happens between records: when the active file exceeds maxBytes after a
// write, it is shifted to path.1 (path.1 → path.2, …) and a fresh active
// file is opened. Files beyond maxFiles are deleted.
type rotatingWriter struct {
	path     string
	maxBytes int64
	maxFiles int

	f      *os.File
	bw     *bufio.Writer
	size   int64
	header []byte // re-written at the top of every rotated-in file

	bytes     obs.Counter // MetricBytes; Logger.Stats reads both
	rotations obs.Counter // MetricRotations
}

func newRotatingWriter(path string, maxBytes int64, maxFiles int) (*rotatingWriter, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	return &rotatingWriter{
		path:     path,
		maxBytes: maxBytes,
		maxFiles: maxFiles,
		f:        f,
		bw:       bufio.NewWriterSize(f, 1<<16),
	}, nil
}

// writeHeader records (and writes) the per-file header, re-emitted after
// every rotation (the binary format's magic).
func (w *rotatingWriter) writeHeader(h []byte) error {
	w.header = append([]byte(nil), h...)
	_, err := w.Write(h)
	return err
}

// Write appends one encoded record (or header). Rotation is checked after
// the write, so records are never split across files.
func (w *rotatingWriter) Write(p []byte) (int, error) {
	n, err := w.bw.Write(p)
	w.size += int64(n)
	w.bytes.Add(uint64(n))
	if err != nil {
		return n, err
	}
	if w.size >= w.maxBytes {
		if rerr := w.rotate(); rerr != nil {
			return n, rerr
		}
	}
	return n, nil
}

// rotate shifts the file set and opens a fresh active file.
func (w *rotatingWriter) rotate() error {
	if err := w.bw.Flush(); err != nil {
		return err
	}
	if err := w.f.Close(); err != nil {
		return err
	}
	// Drop the oldest file if the set is full, then shift path.i → path.i+1.
	oldest := fmt.Sprintf("%s.%d", w.path, w.maxFiles-1)
	_ = os.Remove(oldest)
	for i := w.maxFiles - 2; i >= 1; i-- {
		from := fmt.Sprintf("%s.%d", w.path, i)
		if _, err := os.Stat(from); err == nil {
			_ = os.Rename(from, fmt.Sprintf("%s.%d", w.path, i+1))
		}
	}
	if w.maxFiles > 1 {
		if err := os.Rename(w.path, w.path+".1"); err != nil {
			return err
		}
	}
	f, err := os.OpenFile(w.path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	w.f = f
	w.bw = bufio.NewWriterSize(f, 1<<16)
	w.size = 0
	w.rotations.Inc()
	if len(w.header) > 0 {
		if _, err := w.Write(w.header); err != nil {
			return err
		}
	}
	return nil
}

// Flush pushes buffered bytes to the OS.
func (w *rotatingWriter) Flush() error { return w.bw.Flush() }

// Close flushes and closes the active file.
func (w *rotatingWriter) Close() error {
	if err := w.bw.Flush(); err != nil {
		_ = w.f.Close()
		return err
	}
	return w.f.Close()
}
