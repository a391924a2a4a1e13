// Package storage implements GMine's single-file persistence: a fixed-size
// page file with CRC-32C page checksums, an LRU buffer pool with pin
// counts, and a blob layer for variable-length records spanning page runs.
//
// The paper stores the whole G-Tree "in a single file and the nodes are
// transferred to main memory only when necessary"; this package is that
// substrate. The store is write-once/read-many (the hierarchy is built in
// one pass and then explored), so there is no free list — pages are only
// appended.
package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// PageID identifies a page in the file. Page 0 is the superblock.
type PageID uint32

const (
	// DefaultPageSize is used by Create when 0 is passed.
	DefaultPageSize = 4096
	// MinPageSize bounds how small pages may be (superblock needs room).
	MinPageSize = 256

	pagerMagic   = "GMPF"
	pagerVersion = 1
	// superblock layout: magic(4) version(2) reserved(2) pageSize(4)
	// metaLen(4) meta(...)
	superHeader = 16
	// crcSize trails every page including the superblock.
	crcSize = 4
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Pager provides page-granular access to a single file.
//
// mu serializes the writers (Allocate, WritePage, SetMeta, Sync, Close) and
// guards meta. The read path takes no lock: ReadAt on the File seam is safe
// for concurrent use, numPages and the retry counters are atomics, and the
// file is write-once/read-many, so concurrent page loads — and the retry
// back-off of one of them — never queue behind each other.
type Pager struct {
	mu       sync.Mutex
	f        File
	pageSize int
	numPages atomic.Uint32
	meta     []byte
	readOnly bool

	retries, healed, failed atomic.Uint64 // RetryStats
}

// RetryStats counts the pager's transient-read recovery work. Retries is
// the number of re-read attempts made, Healed the reads that succeeded
// after at least one retry, Failed the reads that exhausted the retry
// budget (or failed permanently outright) and surfaced an error — the only
// failures the query views' fault latches above ever see.
type RetryStats struct {
	Retries uint64
	Healed  uint64
	Failed  uint64
}

// Create creates (truncating) a page file at path: CreateWith over the
// new file. It writes in place; ReplaceFile is the crash-safe way to
// write a file that may already exist.
func Create(path string, pageSize int) (*Pager, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return CreateWith(osFile{f}, pageSize)
}

// CreateWith starts a new page file over f, an empty File, taking
// ownership of it (the pager closes it, also when CreateWith fails).
// pageSize 0 selects DefaultPageSize.
func CreateWith(f File, pageSize int) (*Pager, error) {
	if pageSize == 0 {
		pageSize = DefaultPageSize
	}
	if pageSize < MinPageSize {
		f.Close()
		return nil, fmt.Errorf("storage: page size %d below minimum %d", pageSize, MinPageSize)
	}
	p := &Pager{f: f, pageSize: pageSize}
	p.numPages.Store(1)
	if err := p.writeSuper(); err != nil {
		f.Close()
		return nil, err
	}
	return p, nil
}

// Open opens an existing page file. If readOnly, writes are rejected.
func Open(path string, readOnly bool) (*Pager, error) {
	return OpenWrapped(path, readOnly, nil)
}

// OpenWrapped opens an existing page file with an optional wrapper
// interposed over its backing File — the seam through which tests and the
// -chaos serve mode slide a FaultInjector under a live store. A nil wrap
// is Open. The superblock is read through the wrapper too, but before the
// retry machinery exists; injectors therefore exempt offset 0.
func OpenWrapped(path string, readOnly bool, wrap func(File) File) (*Pager, error) {
	f, err := openOSFile(path, readOnly)
	if err != nil {
		return nil, err
	}
	if wrap != nil {
		if wrapped := wrap(f); wrapped != nil {
			f = wrapped
		}
	}
	return OpenWith(f, readOnly)
}

// OpenWith opens a page file over an already-open File (taking ownership:
// the pager closes it). If readOnly, writes are rejected.
func OpenWith(f File, readOnly bool) (*Pager, error) {
	hdr := make([]byte, superHeader)
	if _, err := f.ReadAt(hdr, 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: reading superblock header: %w", err)
	}
	if string(hdr[:4]) != pagerMagic {
		f.Close()
		return nil, fmt.Errorf("storage: not a page file (bad magic)")
	}
	if v := binary.LittleEndian.Uint16(hdr[4:6]); v != pagerVersion {
		f.Close()
		return nil, fmt.Errorf("storage: unsupported version %d", v)
	}
	pageSize := int(binary.LittleEndian.Uint32(hdr[8:12]))
	if pageSize < MinPageSize {
		f.Close()
		return nil, fmt.Errorf("storage: corrupt page size %d", pageSize)
	}
	size, err := f.Size()
	if err != nil {
		f.Close()
		return nil, err
	}
	if size%int64(pageSize) != 0 {
		f.Close()
		return nil, fmt.Errorf("storage: file size %d not a multiple of page size %d", size, pageSize)
	}
	p := &Pager{f: f, pageSize: pageSize, readOnly: readOnly}
	p.numPages.Store(uint32(size / int64(pageSize)))
	// Verify the superblock checksum and load the meta blob.
	page := make([]byte, pageSize)
	if _, err := f.ReadAt(page, 0); err != nil {
		f.Close()
		return nil, err
	}
	if err := verifyCRC(page); err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: superblock: %w", err)
	}
	metaLen := int(binary.LittleEndian.Uint32(page[12:16]))
	if metaLen < 0 || superHeader+metaLen > pageSize-crcSize {
		f.Close()
		return nil, fmt.Errorf("storage: corrupt meta length %d", metaLen)
	}
	p.meta = append([]byte(nil), page[superHeader:superHeader+metaLen]...)
	return p, nil
}

func verifyCRC(page []byte) error {
	n := len(page)
	want := binary.LittleEndian.Uint32(page[n-crcSize:])
	got := crc32.Checksum(page[:n-crcSize], crcTable)
	if want != got {
		return fmt.Errorf("%w: stored %08x computed %08x", errChecksum, want, got)
	}
	return nil
}

func sealCRC(page []byte) {
	n := len(page)
	binary.LittleEndian.PutUint32(page[n-crcSize:], crc32.Checksum(page[:n-crcSize], crcTable))
}

func (p *Pager) writeSuper() error {
	page := make([]byte, p.pageSize)
	copy(page, pagerMagic)
	binary.LittleEndian.PutUint16(page[4:6], pagerVersion)
	binary.LittleEndian.PutUint32(page[8:12], uint32(p.pageSize))
	binary.LittleEndian.PutUint32(page[12:16], uint32(len(p.meta)))
	copy(page[superHeader:], p.meta)
	sealCRC(page)
	_, err := p.f.WriteAt(page, 0)
	return err
}

// PageSize returns the page size in bytes.
func (p *Pager) PageSize() int { return p.pageSize }

// PayloadSize returns the usable bytes per page (page size minus checksum).
func (p *Pager) PayloadSize() int { return p.pageSize - crcSize }

// NumPages returns the number of pages including the superblock.
func (p *Pager) NumPages() uint32 { return p.numPages.Load() }

// Meta returns a copy of the client metadata blob stored in the superblock.
func (p *Pager) Meta() []byte {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]byte(nil), p.meta...)
}

// SetMeta stores the client metadata blob in the superblock and flushes it.
// The blob must fit in a single page alongside the header.
func (p *Pager) SetMeta(meta []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.readOnly {
		return fmt.Errorf("storage: SetMeta on read-only file")
	}
	if superHeader+len(meta) > p.pageSize-crcSize {
		return fmt.Errorf("storage: meta blob %d bytes exceeds capacity %d", len(meta), p.pageSize-crcSize-superHeader)
	}
	p.meta = append(p.meta[:0], meta...)
	return p.writeSuper()
}

// Allocate appends a zeroed page and returns its id.
func (p *Pager) Allocate() (PageID, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.readOnly {
		return 0, fmt.Errorf("storage: Allocate on read-only file")
	}
	id := PageID(p.numPages.Load())
	page := make([]byte, p.pageSize)
	sealCRC(page)
	if _, err := p.f.WriteAt(page, int64(id)*int64(p.pageSize)); err != nil {
		return 0, err
	}
	p.numPages.Add(1)
	return id, nil
}

// WritePage stores payload (at most PayloadSize bytes) into page id.
func (p *Pager) WritePage(id PageID, payload []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.readOnly {
		return fmt.Errorf("storage: WritePage on read-only file")
	}
	if id == 0 {
		return fmt.Errorf("storage: page 0 is the superblock")
	}
	if n := p.numPages.Load(); id >= PageID(n) {
		return fmt.Errorf("storage: write to unallocated page %d (have %d)", id, n)
	}
	if len(payload) > p.pageSize-crcSize {
		return fmt.Errorf("storage: payload %d bytes exceeds page payload %d", len(payload), p.pageSize-crcSize)
	}
	page := make([]byte, p.pageSize)
	copy(page, payload)
	sealCRC(page)
	_, err := p.f.WriteAt(page, int64(id)*int64(p.pageSize))
	return err
}

// readAttempts bounds the transient-read retry loop: the first read plus
// up to readAttempts-1 re-reads before a failure is classified permanent.
const readAttempts = 4

// retryBackoff sleeps before re-read attempt n (1-based): an exponential
// base doubled per attempt plus up to 100% jitter, so concurrent readers
// hammering one flaky region desynchronize. The budget is deliberately
// tiny (≤ ~1ms total) — this covers torn reads and injected chaos, not
// multi-second device resets.
func retryBackoff(attempt int) {
	base := 50 * time.Microsecond << (attempt - 1)
	time.Sleep(base + time.Duration(rand.Int63n(int64(base))))
}

// ReadPage reads page id's payload into a fresh slice of PayloadSize bytes,
// verifying the checksum: ReadPageInto over a buffer allocated per call.
func (p *Pager) ReadPage(id PageID) ([]byte, error) {
	page := make([]byte, p.pageSize)
	if err := p.ReadPageInto(id, page); err != nil {
		return nil, err
	}
	return page[:p.pageSize-crcSize], nil
}

// ReadPageInto reads page id into page, which must be PageSize bytes long
// (the checksum trailer lands in it too), and verifies the checksum; on
// success page[:PayloadSize()] is the payload. It is ReadPagesInto's
// one-page case: the buffer pool's page load.
//
//gmine:hotpath
func (p *Pager) ReadPageInto(id PageID, page []byte) error {
	return p.ReadPagesInto(id, 1, page)
}

// ReadPagesInto reads the k consecutive pages first, first+1, ... into
// buf, which must be k·PageSize bytes long, with one ReadAt, and verifies
// every page's checksum; on success page first+i's payload is
// buf[i·PageSize:][:PayloadSize()]. On failure the contents of buf are
// unspecified. It holds no lock, so any number of reads — and their retry
// back-offs — run concurrently.
//
// Transient failures — errors marked ErrTransient, short reads, and
// checksum mismatches that heal on re-read (a torn buffer or in-flight
// bit-flip over an intact disk copy) — re-read all k pages with jittered
// backoff, up to readAttempts reads in all, before being classified
// permanent. Callers (the buffer pool, the sweeps, and through both the
// paged-CSR fault latches) therefore only ever see post-classification
// permanent failures; a transient blip never latches a query-visible
// fault.
//
//gmine:hotpath
func (p *Pager) ReadPagesInto(first PageID, k int, buf []byte) error {
	if n := p.numPages.Load(); k < 1 || int64(first)+int64(k) > int64(n) {
		return fmt.Errorf("storage: read of unallocated page %d (have %d)", int64(first)+int64(k)-1, n)
	}
	if len(buf) != k*p.pageSize {
		return fmt.Errorf("storage: page buffer %d bytes, want %d pages of %d", len(buf), k, p.pageSize)
	}
	off := int64(first) * int64(p.pageSize)
	var lastErr error
	for attempt := 0; attempt < readAttempts; attempt++ {
		if attempt > 0 {
			p.retries.Add(1)
			retryBackoff(attempt)
		}
		n, err := p.f.ReadAt(buf, off)
		if err != nil && err != io.EOF {
			if !IsTransientRead(err) {
				p.failed.Add(1)
				return err
			}
			lastErr = fmt.Errorf("storage: page %d: %w", first, err)
			continue
		}
		// EOF short of the last page: the tail bytes are unspecified, so
		// zero them before the CRC check rather than trust leftovers from a
		// previous attempt (or the buffer's previous pages).
		clear(buf[n:])
		if lastErr = p.verifyPages(first, buf); lastErr != nil {
			continue
		}
		if attempt > 0 {
			p.healed.Add(1)
		}
		return nil
	}
	p.failed.Add(1)
	return lastErr
}

// verifyPages checks the checksum of every page in buf, the pages read
// from first on.
//
//gmine:hotpath
func (p *Pager) verifyPages(first PageID, buf []byte) error {
	for i := 0; i < len(buf); i += p.pageSize {
		if err := verifyCRC(buf[i : i+p.pageSize]); err != nil {
			return fmt.Errorf("storage: page %d: %w", first+PageID(i/p.pageSize), err)
		}
	}
	return nil
}

// RetryStats snapshots the pager's transient-read recovery counters.
func (p *Pager) RetryStats() RetryStats {
	return RetryStats{Retries: p.retries.Load(), Healed: p.healed.Load(), Failed: p.failed.Load()}
}

// Sync flushes the file to stable storage.
func (p *Pager) Sync() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.f.Sync()
}

// Close syncs and closes the file.
func (p *Pager) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.readOnly {
		return p.f.Close()
	}
	if err := p.f.Sync(); err != nil {
		p.f.Close()
		return err
	}
	return p.f.Close()
}
