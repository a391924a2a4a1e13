package storage

import (
	"io"
	"os"
)

// MemFile is a File held in memory: a growable byte slice behind the same
// five methods the pager reads and writes an *os.File through. A G-Tree
// built in memory is saved into one and opened from it, so a built engine
// reads its graph exactly as an engine opened from disk does.
//
// A MemFile follows the pager's discipline: it is written by one
// goroutine before anything reads it, and then read concurrently. Sync
// and Close do nothing; the bytes stay readable.
type MemFile struct{ b []byte }

// NewMemFile returns a MemFile holding data (taking ownership of it).
func NewMemFile(data []byte) *MemFile { return &MemFile{b: data} }

// Bytes returns the file's contents, aliased: do not modify them.
func (f *MemFile) Bytes() []byte { return f.b }

// ReadAt follows os.File: a read reaching past the end returns the bytes
// there are and io.EOF.
func (f *MemFile) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, os.ErrInvalid
	}
	if off >= int64(len(f.b)) {
		return 0, io.EOF
	}
	if n := copy(p, f.b[off:]); n < len(p) {
		return n, io.EOF
	}
	return len(p), nil
}

// WriteAt writes p at off, growing the file (zero-filled) as needed.
func (f *MemFile) WriteAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, os.ErrInvalid
	}
	if end := int(off) + len(p); end > len(f.b) {
		if end > cap(f.b) { // double: a save appends page by page
			f.b = append(make([]byte, 0, max(2*cap(f.b), end)), f.b...)
		}
		n := len(f.b)
		f.b = f.b[:end]
		clear(f.b[n:])
	}
	return copy(f.b[off:], p), nil
}

func (f *MemFile) Sync() error          { return nil }
func (f *MemFile) Close() error         { return nil }
func (f *MemFile) Size() (int64, error) { return int64(len(f.b)), nil }
