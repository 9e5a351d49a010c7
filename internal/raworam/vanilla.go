package raworam

import (
	"fmt"
	"time"
)

// This file implements VANILLA RAW ORAM access semantics — the design
// FEDORA's Optimization 1 (Sec 4.4) improves upon. In vanilla RAW ORAM
// every logical access is an AO access that moves the block into the
// stash, and one EO access runs after every A accesses regardless of
// direction:
//
//   - a read is AO + (block returns to the stash) + scheduled EOs, and
//   - an update is AO (fetch) + in-stash modify + scheduled EOs.
//
// FEDORA's insight is that the FL round makes half of these unnecessary:
// the download phase never grows the stash (blocks leave for the buffer
// ORAM), so its EOs can be skipped; the upload phase never needs the
// fetch, so its AOs can be skipped. The schedule ablation in
// internal/experiments quantifies the saving by running the same round
// through both code paths.

// VanillaAccess performs one vanilla RAW ORAM access: fetch the block
// via AO, optionally modify it, and leave it in the stash; every
// EvictPeriod accesses one EO drains the stash. mutate may be nil (pure
// read). The returned slice is the block's (post-mutation) contents.
func (o *ORAM) VanillaAccess(id uint64, mutate func(data []byte)) ([]byte, time.Duration, error) {
	if id >= o.cfg.NumBlocks {
		return nil, 0, fmt.Errorf("raworam: block %d out of range %d", id, o.cfg.NumBlocks)
	}
	o.stats.AOAccesses++
	d := o.chargeAO()

	var out []byte
	if !o.cfg.Phantom {
		leaf := o.pos.Get(id)
		blk := o.stash.Remove(id)
		if blk == nil {
			blk = o.stash.NewBlock(id, 0, o.cfg.BlockSize)
			o.resetPath()
			found, err := o.findOnPath(leaf, id, blk.Data, true)
			if err != nil {
				o.stats.Time += d
				return nil, d, err
			}
			if !found {
				o.initBlock(blk.Data, id)
			}
		}
		if mutate != nil {
			mutate(blk.Data)
		}
		blk.Leaf = o.randomLeaf()
		o.pos.Set(id, blk.Leaf)
		if err := o.stash.Put(blk); err != nil {
			o.stats.Time += d
			return nil, d, err
		}
		out = append([]byte(nil), blk.Data...)
	} else if mutate != nil {
		mutate(nil)
	}

	// Scheduled EO after every A accesses (vanilla shares the counter
	// with the FL-friendly write-back path).
	o.pendingWrites++
	if o.pendingWrites >= o.cfg.EvictPeriod {
		o.pendingWrites = 0
		ed, err := o.evictOnce()
		d += ed
		if err != nil {
			o.stats.Time += d
			return nil, d, err
		}
	}
	o.stats.Time += d
	return out, d, nil
}
