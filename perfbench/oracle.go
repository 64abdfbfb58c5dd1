package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"time"

	storagetank "repro"
)

// Every block the benchmark writes is self-describing: a 16-byte record
// (write id, file, block) repeated across the 4 KiB. A read or a media
// scan recovers which write it sees, and any mix of two writes or a
// shifted copy breaks the period and is caught.
const recLen = 16

type blockKey struct{ file, blk uint32 }

func fillBlock(dst []byte, wid uint64, k blockKey) {
	binary.BigEndian.PutUint64(dst[0:8], wid)
	binary.BigEndian.PutUint32(dst[8:12], k.file)
	binary.BigEndian.PutUint32(dst[12:16], k.blk)
	for n := recLen; n < len(dst); n *= 2 {
		copy(dst[n:], dst[:n])
	}
}

// parseBlock returns the write a block holds. ok is false for a block
// that is not a whole, well-formed record pattern.
func parseBlock(b []byte) (wid uint64, k blockKey, ok bool) {
	if len(b) != storagetank.BlockSize || !bytes.Equal(b[recLen:], b[:len(b)-recLen]) {
		return 0, k, false
	}
	wid = binary.BigEndian.Uint64(b[0:8])
	k = blockKey{binary.BigEndian.Uint32(b[8:12]), binary.BigEndian.Uint32(b[12:16])}
	return wid, k, wid != 0
}

// oracle is the read-back check. A read that begins at time r may return
// the last write acknowledged before r, or a write concurrent with the
// read; it is stale if some write w' started after the returned write
// was acknowledged and itself was acknowledged before r. Times come from
// one monotonic clock; a start is stamped before the call and an ack
// after it returns, so delays in stamping only ever make the check more
// lenient, never report a fresh value as stale.
type oracle struct {
	base time.Time

	mu     sync.Mutex
	nextID uint64
	blocks map[blockKey]*blockHist
}

// histLen bounds the writes remembered per block. A read overlaps at
// most the writes that run while it holds the shared lock, far fewer
// than this; a read returning a write older than the window is stale by
// at least histLen newer writes.
const histLen = 8

// blockHist is one block's recent writes in issue order.
type blockHist struct {
	recent []writeRec
	// maxStartAcked is the latest start among the block's acknowledged
	// writes.
	maxStartAcked int64
}

type writeRec struct {
	wid        uint64
	start, ack int64 // ack is math.MaxInt64 until acknowledged
}

func newOracle() *oracle {
	return &oracle{base: time.Now(), blocks: make(map[blockKey]*blockHist)}
}

func (o *oracle) now() int64 { return int64(time.Since(o.base)) }

// beginWrite assigns the next write id for k and stamps its start.
func (o *oracle) beginWrite(k blockKey) uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	h := o.blocks[k]
	if h == nil {
		h = &blockHist{maxStartAcked: -1}
		o.blocks[k] = h
	}
	if len(h.recent) == histLen {
		copy(h.recent, h.recent[1:])
		h.recent = h.recent[:histLen-1]
	}
	o.nextID++
	h.recent = append(h.recent, writeRec{wid: o.nextID, start: o.now(), ack: math.MaxInt64})
	return o.nextID
}

// ackWrite records that write wid of block k returned success.
func (o *oracle) ackWrite(k blockKey, wid uint64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	h := o.blocks[k]
	for i := range h.recent {
		if w := &h.recent[i]; w.wid == wid {
			w.ack = o.now()
			h.maxStartAcked = max(h.maxStartAcked, w.start)
			return
		}
	}
	// Aged out of the window before its ack: histLen newer writes were
	// issued meanwhile, so it cannot be the block's visible value.
}

// beginRead snapshots what must be visible to a read of k starting now.
func (o *oracle) beginRead(k blockKey) int64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	if h := o.blocks[k]; h != nil {
		return h.maxStartAcked
	}
	return -1
}

// checkRead validates data returned by a read of k that began with
// snapshot s0 (from beginRead).
func (o *oracle) checkRead(k blockKey, s0 int64, data []byte) error {
	wid, got, ok := parseBlock(data)
	if !ok {
		return fmt.Errorf("read %v: block is not a whole written record", k)
	}
	if got != k {
		return fmt.Errorf("read %v: block holds data of %v", k, got)
	}
	return o.checkWrite(k, s0, wid)
}

// checkWrite validates that write wid is a value a read of k that began
// with snapshot s0 may return.
func (o *oracle) checkWrite(k blockKey, s0 int64, wid uint64) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	h := o.blocks[k]
	if h == nil {
		return fmt.Errorf("read %v: write %d was never issued for this block", k, wid)
	}
	for _, w := range h.recent {
		if w.wid != wid {
			continue
		}
		if s0 > w.ack {
			return fmt.Errorf("read %v: stale write %d (acked at %dns, superseded by a write started at %dns)",
				k, wid, w.ack, s0)
		}
		return nil
	}
	if len(h.recent) > 0 && wid < h.recent[0].wid {
		return fmt.Errorf("read %v: stale write %d, older than the last %d writes", k, wid, len(h.recent))
	}
	return fmt.Errorf("read %v: write %d was never issued for this block", k, wid)
}

// acked returns every block with at least one acknowledged write.
func (o *oracle) acked() []blockKey {
	o.mu.Lock()
	defer o.mu.Unlock()
	keys := make([]blockKey, 0, len(o.blocks))
	for k, h := range o.blocks {
		if h.maxStartAcked >= 0 {
			keys = append(keys, k)
		}
	}
	return keys
}

// checkDurable validates reopened media against every acknowledged
// write, once all clients have synced and every node is closed: no block
// may be torn, and every block with an acknowledged write must hold a
// write the final read-back check accepts.
func (o *oracle) checkDurable(stores []storagetank.Media, capacity uint64) error {
	found := make(map[blockKey]uint64)
	for si, m := range stores {
		if torn := m.Recovery().Torn; len(torn) > 0 {
			return fmt.Errorf("store %d: %d torn blocks after a clean shutdown (%v)", si, len(torn), torn)
		}
		for b := uint64(0); b < capacity; b++ {
			data, _, ok, err := m.Read(b)
			if err != nil {
				return fmt.Errorf("store %d block %d: %w", si, b, err)
			}
			if !ok {
				continue
			}
			wid, k, ok := parseBlock(data)
			if !ok {
				return fmt.Errorf("store %d block %d: not a whole written record", si, b)
			}
			if _, dup := found[k]; dup {
				return fmt.Errorf("store %d block %d: second copy of %v", si, b, k)
			}
			found[k] = wid
		}
	}
	for _, k := range o.acked() {
		wid, ok := found[k]
		if !ok {
			return fmt.Errorf("%v: acknowledged and synced, but missing from the media", k)
		}
		if err := o.checkWrite(k, o.beginRead(k), wid); err != nil {
			return fmt.Errorf("media: %w", err)
		}
	}
	return nil
}
