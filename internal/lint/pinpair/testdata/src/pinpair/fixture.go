// Package pinpair exercises the pinpair analyzer against a local
// stand-in for the storage.BufferPool surface: every Get needs a Release
// on every path, every Partition needs a Close, escapes transfer
// ownership.
package pinpair

import "errors"

type PageID uint32

type BufferPool struct{}

func (bp *BufferPool) Get(id PageID) ([]byte, error) { return nil, nil }
func (bp *BufferPool) Release(id PageID)             {}
func (bp *BufferPool) Partition(frames int) *Partition {
	return &Partition{}
}

type Partition struct{}

func (p *Partition) Get(id PageID) ([]byte, error) { return nil, nil }
func (p *Partition) Release(id PageID)             {}
func (p *Partition) Close()                        {}

var errBoom = errors.New("boom")

func neverReleased(bp *BufferPool, id PageID) byte {
	data, _ := bp.Get(id) // want `page pinned by bp\.Get\(id\) is never Released`
	return data[0]
}

func leakOnEarlyReturn(bp *BufferPool, id PageID) ([]byte, error) {
	data, err := bp.Get(id) // want `can reach the return at line \d+ without Release`
	if err != nil {
		return nil, err // failed Get pins nothing: not this return
	}
	if len(data) == 0 {
		return nil, errBoom // leak: pinned page abandoned here
	}
	out := make([]byte, len(data))
	copy(out, data)
	bp.Release(id)
	return out, nil
}

func compliant(bp *BufferPool, id PageID) ([]byte, error) {
	data, err := bp.Get(id)
	if err != nil {
		return nil, err
	}
	if len(data) == 0 {
		bp.Release(id)
		return nil, errBoom
	}
	out := make([]byte, len(data))
	copy(out, data)
	bp.Release(id)
	return out, nil
}

func compliantDefer(bp *BufferPool, id PageID) (byte, error) {
	data, err := bp.Get(id)
	if err != nil {
		return 0, err
	}
	defer bp.Release(id)
	if len(data) == 0 {
		return 0, errBoom
	}
	return data[0], nil
}

func compliantLoop(bp *BufferPool, ids []PageID) (int, error) {
	total := 0
	for _, id := range ids {
		data, err := bp.Get(id)
		if err != nil {
			return 0, err
		}
		total += len(data)
		bp.Release(id)
	}
	return total, nil
}

func partitionNeverClosed(bp *BufferPool) error {
	part := bp.Partition(8) // want `Partition acquired here is never Closed`
	if _, err := part.Get(1); err != nil {
		return err
	}
	part.Release(1)
	return nil
}

func partitionCompliant(bp *BufferPool) {
	part := bp.Partition(8)
	defer part.Close()
	if data, err := part.Get(1); err == nil {
		_ = data
		part.Release(1)
	}
}

// partitionEscapes returns the handle's Close to its caller: ownership
// transfers, no diagnostic.
func partitionEscapes(bp *BufferPool) func() {
	part := bp.Partition(8)
	return part.Close
}

// partitionCapturedByClosure hands the handle to a release closure (the
// engine's queryAdj seam): ownership transfers.
func partitionCapturedByClosure(bp *BufferPool) func() {
	part := bp.Partition(8)
	release := func() {
		part.Close()
	}
	return release
}

func (bp *BufferPool) TryGet(id PageID) ([]byte, bool, error) { return nil, false, nil }
