// Package persist is FEDORA's durability subsystem: it turns the
// long-lived server-side state of the system — the SSD-resident RAW ORAM
// tree image, the position map, the stash, the VTree valid bits, the TEE
// counters, and the FL training state — into checkpoint files that
// survive a process crash, plus a write-ahead round log (WAL) that lets
// recovery replay the rounds executed since the last checkpoint.
//
// The paper treats the main ORAM as persistent infrastructure (Secs 4.4,
// 5.2): a production FL deployment cannot afford to lose thousands of
// training rounds to a restart. This package provides the mechanisms;
// each stateful component contributes a versioned Snapshot()/Restore()
// pair, and internal/fl ties them together into a durable training loop.
//
// # Checkpoint format
//
// A checkpoint file is a sequence of CRC-protected frames:
//
//	header : magic "FEDORAC1" (8 bytes)
//	frame  : u32 len(name) | name | u64 len(payload) | payload
//	         | u32 CRC32-IEEE(name ‖ payload)
//	trailer: a frame named "!end" whose payload is the u64 frame count
//
// Every frame is independently checksummed, so corruption is localized
// and detected before any payload is interpreted; a missing trailer
// frame means the file was truncated (e.g. a crash mid-write, although
// the atomic temp-file + fsync + rename writer makes that window
// invisible to readers of the final path). Decoders return clean errors
// on any malformed input — never panics (fuzz-tested).
//
// # Write-ahead round log
//
// The WAL is an append-only file of the same frame format. The FL layer
// appends one RoundRecord per completed round (round number, the round's
// RNG seed, a digest of the selected clients, and the checkpoint epoch it
// builds on). Because round execution is seed-deterministic (PR 1) and
// RNG state is part of every checkpoint, recovery is:
//
//  1. load the newest checkpoint that validates (falling back across
//     epochs on corruption),
//  2. re-execute the WAL rounds recorded after it, verifying each
//     replayed round reproduces the logged seed and client digest.
//
// The result is bit-identical to an uninterrupted run.
//
// # Background saves
//
// A checkpoint is never a round's durability point — the WAL record
// (the cluster coordinator's commit frame) is — so it need not finish
// before the next round starts. Manager.Start takes a checkpoint's
// snapshot on the caller and persists it on one background saver:
// build, frame, write, fsync, rename, prune, then the caller's
// after-save hook, which reports the outcome. A section need not be in
// memory: Checkpoint.PutStream adds one whose payload of known size a
// producer writes while the file is written — the cluster coordinator
// streams its members' replies that way — and its frame's CRC is
// computed as the bytes pass (FrameWriter.WriteFrameFrom). One save is
// in flight at a time, and the Manager's reads (Epochs, LoadLatest,
// LoadSection) wait for it, so status fields fed by the hook report the
// newest completed save. The synchronous saves (SaveNext, SaveSection) run
// the same saver and wait for it. A WAL whose records a checkpoint now
// holds is cut at the Mark taken with the snapshot (WAL.Cut): records
// appended while the checkpoint was being written survive the cut.
package persist

import "errors"

// ErrCorrupt is the sentinel wrapped by every integrity failure: bad
// magic, mismatched CRC, truncated frame, malformed payload.
var ErrCorrupt = errors.New("persist: corrupt data")

// ErrNoCheckpoint is returned by Manager.LoadLatest when the directory
// holds no (valid or invalid) checkpoint at all.
var ErrNoCheckpoint = errors.New("persist: no checkpoint found")

// ErrLocked is returned by TryLockFile when another holder has the lock.
var ErrLocked = errors.New("persist: lock held elsewhere")
