package storage

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func TestMemFileReadWrite(t *testing.T) {
	f := NewMemFile(nil)
	if n, err := f.WriteAt([]byte("tail"), 6); n != 4 || err != nil {
		t.Fatalf("WriteAt past the end: %d, %v", n, err)
	}
	if n, err := f.WriteAt([]byte("he"), 0); n != 2 || err != nil {
		t.Fatalf("WriteAt at 0: %d, %v", n, err)
	}
	if size, _ := f.Size(); size != 10 {
		t.Fatalf("size %d, want 10", size)
	}
	if want := []byte("he\x00\x00\x00\x00tail"); !bytes.Equal(f.Bytes(), want) {
		t.Fatalf("contents %q, want %q (the gap zero-filled)", f.Bytes(), want)
	}
	buf := make([]byte, 6)
	if n, err := f.ReadAt(buf, 6); n != 4 || err != io.EOF || string(buf[:n]) != "tail" {
		t.Fatalf("short ReadAt: %d %q %v, want 4 \"tail\" io.EOF", n, buf[:n], err)
	}
	if n, err := f.ReadAt(buf[:4], 6); n != 4 || err != nil {
		t.Fatalf("exact ReadAt: %d, %v", n, err)
	}
	if n, err := f.ReadAt(buf, 10); n != 0 || err != io.EOF {
		t.Fatalf("ReadAt at the end: %d, %v", n, err)
	}
	if _, err := f.ReadAt(buf, -1); err == nil {
		t.Fatal("negative offset accepted")
	}
	if f.Sync() != nil || f.Close() != nil {
		t.Fatal("Sync or Close failed")
	}
	if n, err := f.ReadAt(buf[:2], 0); n != 2 || err != nil {
		t.Fatalf("read after Close: %d, %v; the bytes stay readable", n, err)
	}
}

// TestMemFilePagerRoundTrip writes a page file into a MemFile and opens
// it again from the same bytes.
func TestMemFilePagerRoundTrip(t *testing.T) {
	f := NewMemFile(nil)
	p, err := CreateWith(f, 512)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("gmine "), 300) // spans several pages
	id, err := WriteBlob(p, data)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.SetMeta([]byte("meta")); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	q, err := OpenWith(NewMemFile(f.Bytes()), true)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	if string(q.Meta()) != "meta" || q.PageSize() != 512 {
		t.Fatalf("meta %q page size %d", q.Meta(), q.PageSize())
	}
	got, err := ReadBlobDirect(q, id)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("blob round trip: %v", err)
	}
	if _, err := CreateWith(NewMemFile(nil), 64); err == nil {
		t.Fatal("CreateWith accepted a page size below the minimum")
	}
}

// TestReplaceFile checks both outcomes of a replace: a failed write
// leaves the old file byte-identical, a good one replaces it, and neither
// leaves a temp file behind.
func TestReplaceFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f.gmine")
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := ReplaceFile(path, func(f File) error {
		if _, err := f.WriteAt([]byte("half-written"), 0); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("ReplaceFile returned %v, want the write's error", err)
	}
	assertDir(t, dir, path, "old")
	err = ReplaceFile(path, func(f File) error {
		if _, err := f.WriteAt([]byte("new"), 0); err != nil {
			return err
		}
		if err := f.Sync(); err != nil {
			return err
		}
		return f.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	assertDir(t, dir, path, "new")
}

// assertDir checks that dir holds exactly path, with the given contents.
func assertDir(t *testing.T, dir, path, want string) {
	t.Helper()
	got, err := os.ReadFile(path)
	if err != nil || string(got) != want {
		t.Fatalf("%s holds %q (%v), want %q", path, got, err, want)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		var names []string
		for _, e := range ents {
			names = append(names, e.Name())
		}
		t.Fatalf("directory holds %v, want only %s", names, filepath.Base(path))
	}
}
