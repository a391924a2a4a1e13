package storage

import (
	"errors"
	"os"
	"path/filepath"
)

// File is the pager's backing-store abstraction: the exact subset of
// *os.File the pager uses. A file on disk is an osFile (below), a built
// engine's file is a MemFile; tests and the chaos-serving mode interpose
// a FaultInjector to exercise the transient-read retry and fault-latch
// machinery without touching the bytes underneath.
type File interface {
	ReadAt(p []byte, off int64) (int, error)
	WriteAt(p []byte, off int64) (int, error)
	Sync() error
	Close() error
	// Size returns the current file length in bytes (os.File.Stat().Size()).
	Size() (int64, error)
}

// ErrTransient marks an injected (or otherwise known-recoverable) I/O
// error: the read may succeed if simply retried. The pager's read path
// retries errors.Is(err, ErrTransient) failures with jittered backoff
// before classifying them permanent; everything that escapes the pager has
// therefore already survived classification and retry.
var ErrTransient = errors.New("storage: transient I/O error")

// IsTransientRead reports whether a read failure is worth retrying:
// explicitly marked transient errors, short reads (the kernel may deliver
// fewer bytes under memory pressure or signal interruption), and checksum
// mismatches (a torn or bit-flipped buffer heals on re-read when the disk
// copy is intact) all qualify. Structural errors — unallocated pages,
// closed files — do not.
func IsTransientRead(err error) bool {
	return errors.Is(err, ErrTransient) ||
		errors.Is(err, errShortRead) ||
		errors.Is(err, errChecksum)
}

// errShortRead classifies reads that returned fewer bytes than requested
// without a hard error; the retry loop re-reads the full page.
var errShortRead = errors.New("storage: short page read")

// errChecksum underlies every verifyCRC failure so the retry loop can
// recognize "payload arrived, bits wrong" — the one corruption mode that
// is transient when it heals on re-read and permanent when it does not.
var errChecksum = errors.New("checksum mismatch")

// osFile adapts *os.File to the File interface (Stat -> Size).
type osFile struct{ *os.File }

func (f osFile) Size() (int64, error) {
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// openOSFile opens path with the pager's access mode as a File.
func openOSFile(path string, readOnly bool) (File, error) {
	flag := os.O_RDWR
	if readOnly {
		flag = os.O_RDONLY
	}
	f, err := os.OpenFile(path, flag, 0)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

// ReplaceFile writes a new file at path without ever exposing a partial
// one. write fills a temp file in path's directory and must sync and close
// it (a Pager's Close does both); the temp file is then renamed over path
// and the directory synced, so after a crash path holds either the old
// file or the complete new one. If anything fails, path is untouched and
// the temp file is removed.
func ReplaceFile(path string, write func(File) error) (err error) {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close() // write may have closed it already
			os.Remove(f.Name())
		}
	}()
	// os.Create's mode under the usual umask, not CreateTemp's 0600.
	if err = f.Chmod(0o644); err != nil {
		return err
	}
	if err = write(osFile{f}); err != nil {
		return err
	}
	if err = os.Rename(f.Name(), path); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
