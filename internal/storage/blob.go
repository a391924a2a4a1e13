package storage

import (
	"encoding/binary"
	"fmt"
)

// Blob layer: variable-length records stored in runs of consecutive pages.
// The first page of a run starts with the record length as a u32; the
// record bytes follow, continuing into subsequent pages. Because the pager
// is append-only, a run written by WriteBlob is always contiguous, so a
// blob is addressed by its first PageID alone.

// WriteBlob appends data as a new page run and returns its first page id.
func WriteBlob(p *Pager, data []byte) (PageID, error) {
	payload := p.PayloadSize()
	if payload <= 4 {
		return 0, fmt.Errorf("storage: page payload too small for blobs")
	}
	hdr := make([]byte, 4)
	binary.LittleEndian.PutUint32(hdr, uint32(len(data)))
	rest := data
	first := PageID(0)
	buf := make([]byte, 0, payload)
	buf = append(buf, hdr...)
	take := payload - 4
	if take > len(rest) {
		take = len(rest)
	}
	buf = append(buf, rest[:take]...)
	rest = rest[take:]
	id, err := p.Allocate()
	if err != nil {
		return 0, err
	}
	first = id
	if err := p.WritePage(id, buf); err != nil {
		return 0, err
	}
	for len(rest) > 0 {
		take = payload
		if take > len(rest) {
			take = len(rest)
		}
		id, err := p.Allocate()
		if err != nil {
			return 0, err
		}
		if err := p.WritePage(id, rest[:take]); err != nil {
			return 0, err
		}
		rest = rest[take:]
	}
	return first, nil
}

// BlobPages returns how many pages a blob of n bytes occupies with the
// given payload size.
func BlobPages(n, payloadSize int) int {
	if payloadSize <= 4 {
		return 0
	}
	if n <= payloadSize-4 {
		return 1
	}
	rest := n - (payloadSize - 4)
	return 1 + (rest+payloadSize-1)/payloadSize
}

// blobLen validates a blob's recorded length against the pages actually
// present after its first page, so a corrupt header cannot drive a
// multi-gigabyte allocation or a read past the end of the file.
func blobLen(p *Pager, id PageID, header uint32) (int, error) {
	payload := int64(p.PayloadSize())
	max := (int64(p.NumPages())-int64(id))*payload - 4
	if max < 0 {
		max = 0
	}
	if int64(header) > max {
		return 0, fmt.Errorf("storage: blob at page %d claims %d bytes, file holds at most %d", id, header, max)
	}
	return int(header), nil
}

// ReadBlob reads the blob starting at page id through the buffer pool.
// Pages are pinned only for the duration of the copy; the result is the
// caller's own and shares nothing with the pool's frames.
func ReadBlob(bp *BufferPool, id PageID) ([]byte, error) {
	payload := bp.pager.PayloadSize()
	pg, err := bp.Get(id)
	if err != nil {
		return nil, err
	}
	n, err := blobLen(bp.pager, id, binary.LittleEndian.Uint32(pg[:4]))
	if err != nil {
		bp.Release(id)
		return nil, err
	}
	out := make([]byte, 0, n)
	take := payload - 4
	if take > n {
		take = n
	}
	out = append(out, pg[4:4+take]...)
	bp.Release(id)
	next := id + 1
	for len(out) < n {
		pg, err := bp.Get(next)
		if err != nil {
			return nil, err
		}
		take := payload
		if take > n-len(out) {
			take = n - len(out)
		}
		out = append(out, pg[:take]...)
		bp.Release(next)
		next++
	}
	return out, nil
}

// ReadBlobDirect reads a blob without a buffer pool (used at build time).
func ReadBlobDirect(p *Pager, id PageID) ([]byte, error) {
	payload := p.PayloadSize()
	pg, err := p.ReadPage(id)
	if err != nil {
		return nil, err
	}
	n, err := blobLen(p, id, binary.LittleEndian.Uint32(pg[:4]))
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, n)
	take := payload - 4
	if take > n {
		take = n
	}
	out = append(out, pg[4:4+take]...)
	next := id + 1
	for len(out) < n {
		pg, err := p.ReadPage(next)
		if err != nil {
			return nil, err
		}
		take := payload
		if take > n-len(out) {
			take = n - len(out)
		}
		out = append(out, pg[:take]...)
		next++
	}
	return out, nil
}
