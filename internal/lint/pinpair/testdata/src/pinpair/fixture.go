// Package pinpair exercises the pinpair analyzer against a local
// stand-in for the storage.BufferPool surface: every Get needs a Release
// on every path, through the pool or a counted view of it.
package pinpair

import "errors"

type PageID uint32

type BufferPool struct{}

func (bp *BufferPool) Get(id PageID) ([]byte, error) { return nil, nil }
func (bp *BufferPool) Release(id PageID)             {}
func (bp *BufferPool) Counted() *CountedPool         { return &CountedPool{} }

type CountedPool struct{}

func (c *CountedPool) Get(id PageID) ([]byte, error) { return nil, nil }
func (c *CountedPool) Release(id PageID)             {}

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

func countedNeverReleased(bp *BufferPool) error {
	view := bp.Counted()
	if _, err := view.Get(1); err != nil { // want `page pinned by view\.Get\(1\) is never Released`
		return err
	}
	return nil
}

func countedCompliant(bp *BufferPool) {
	view := bp.Counted()
	if data, err := view.Get(1); err == nil {
		_ = data
		view.Release(1)
	}
}

func (bp *BufferPool) TryGet(id PageID) ([]byte, bool, error) { return nil, false, nil }
