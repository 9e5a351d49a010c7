package persist

import (
	"bufio"
	"fmt"
	"io"
	"os"
)

// RoundRecord is one committed FL round in the write-ahead log. Round
// execution is seed-deterministic, so the record does not store model
// bytes — only what recovery needs to REPLAY the round from the previous
// checkpoint and to verify the replay reproduced the original:
type RoundRecord struct {
	// Round is the 1-based round number the record commits.
	Round uint64
	// Epoch is the checkpoint epoch the round built on (diagnostic).
	Epoch uint64
	// Seed is the round seed drawn from the trainer RNG; a replayed
	// round must draw the identical seed or the state diverged.
	Seed int64
	// ClientDigest fingerprints the selected client set + request order.
	ClientDigest uint64
}

const walRecordVersion = 1

// walRecordFrame names WAL record frames.
const walRecordFrame = "round"

func (r RoundRecord) encode() []byte {
	var e Encoder
	e.U8(walRecordVersion)
	e.U64(r.Round)
	e.U64(r.Epoch)
	e.I64(r.Seed)
	e.U64(r.ClientDigest)
	return e.Finish()
}

func decodeRoundRecord(p []byte) (RoundRecord, error) {
	d := NewDecoder(p)
	var r RoundRecord
	if v := d.U8(); d.Err() == nil && v != walRecordVersion {
		return r, fmt.Errorf("%w: unsupported WAL record version %d", ErrCorrupt, v)
	}
	r.Round = d.U64()
	r.Epoch = d.U64()
	r.Seed = d.I64()
	r.ClientDigest = d.U64()
	if d.Err() != nil {
		return r, d.Err()
	}
	return r, nil
}

// WAL is the append-only round log. Appends are fsynced before they
// return, so a record in the log means the round's effects are fully
// reconstructible: a crash between a round's completion and its append
// simply loses the record, and recovery re-executes that round
// identically (the RNG state in the checkpoint makes it deterministic).
type WAL struct {
	f    *os.File
	path string
	// cut counts the frame bytes Reset and Cut have dropped, so a Mark
	// names a place in the log, not in the current file.
	cut int64
}

// OpenWAL opens (creating if absent) a WAL for appending. A brand-new
// file gets the magic header; an existing file keeps its records.
func OpenWAL(path string) (*WAL, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if st.Size() == 0 {
		if _, err := f.WriteString(WALMagic); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, err
		}
	}
	return &WAL{f: f, path: path}, nil
}

// Append durably writes one record (frame write + fsync).
func (w *WAL) Append(rec RoundRecord) error {
	if err := writeRawFrame(w.f, walRecordFrame, rec.encode()); err != nil {
		return err
	}
	return w.f.Sync()
}

// AppendRaw durably writes one arbitrary named record (frame write +
// fsync). It is the generic sibling of Append for callers with their
// own record vocabulary — the cluster coordinator logs round begins,
// gradient batches and commits this way. Names must not collide with
// the typed "round" frame unless the payload is a RoundRecord.
func (w *WAL) AppendRaw(name string, payload []byte) error {
	if err := writeRawFrame(w.f, name, payload); err != nil {
		return err
	}
	return w.f.Sync()
}

// Reset truncates the log back to an empty (magic-only) file — called
// after its records have been collapsed into a checkpoint. The
// truncate-then-rewrite is not atomic, but every intermediate state
// (empty file, bare magic) reads as an empty log, so a crash inside
// Reset loses nothing that was not already checkpointed.
func (w *WAL) Reset() error {
	size, err := w.size()
	if err != nil {
		return err
	}
	if err := w.f.Truncate(0); err != nil {
		return err
	}
	// The file is O_APPEND; after truncate the next write lands at 0.
	if _, err := w.f.WriteString(WALMagic); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.cut += max(size-int64(len(WALMagic)), 0)
	return nil
}

// Mark returns the log's current end. A later Cut(mark) drops every
// frame appended before the Mark call and keeps the ones after it.
func (w *WAL) Mark() (int64, error) {
	size, err := w.size()
	return w.cut + size, err
}

// Cut drops the frames before mark — they are in a checkpoint now —
// and keeps those appended since, byte for byte. With nothing appended
// since, it is Reset. Otherwise the kept tail is copied to a temp file
// that is fsynced and renamed over the log, which is then reopened: the
// log file is never rewritten in place, so a crash before the rename
// reads back as the old log and one after it as the new. Frames already
// dropped stay dropped; the caller serializes Cut with appends.
func (w *WAL) Cut(mark int64) error {
	size, err := w.size()
	if err != nil {
		return err
	}
	off := mark - w.cut // the mark's offset in the current file
	switch {
	case off <= int64(len(WALMagic)):
		return nil
	case off > size:
		return fmt.Errorf("persist: WAL mark %d is past the log's end %d", mark, w.cut+size)
	case off == size:
		return w.Reset()
	}
	err = WriteFileAtomic(w.path, func(tmp *os.File) error {
		if _, err := tmp.WriteString(WALMagic); err != nil {
			return err
		}
		_, err := io.Copy(tmp, io.NewSectionReader(w.f, off, size-off))
		return err
	})
	if err != nil {
		return err
	}
	// The old descriptor now names the replaced file: appends through it
	// would be lost, so on a failed reopen it is closed and they fail.
	w.f.Close()
	f, err := os.OpenFile(w.path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w.f = f
	w.cut += off - int64(len(WALMagic))
	return nil
}

// size is the log file's current length.
func (w *WAL) size() (int64, error) {
	st, err := w.f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// RawRecord is one generic WAL record: the frame name plus its payload.
type RawRecord struct {
	Name    string
	Payload []byte
}

// ReadRawWALFile parses a WAL into generic records — the one frame loop
// both WAL readers share: parsing stops at the first frame that fails
// its CRC or decodes short, `torn` reports whether such a tail was
// discarded, and a missing file reads as an empty log. It accepts any
// frame name; ReadWALFile decodes its records as RoundRecords.
func ReadRawWALFile(path string) (records []RawRecord, torn bool, err error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	defer f.Close()
	r := bufio.NewReader(f)
	magic := make([]byte, len(WALMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, true, nil
	}
	if string(magic) != WALMagic {
		return nil, false, fmt.Errorf("%w: bad WAL magic %q", ErrCorrupt, magic)
	}
	for {
		name, payload, err := readFrame(r)
		if err == io.EOF {
			return records, false, nil
		}
		if err != nil {
			return records, true, nil
		}
		records = append(records, RawRecord{Name: name, Payload: payload})
	}
}

// Close closes the underlying file.
func (w *WAL) Close() error { return w.f.Close() }

// Path returns the WAL file path.
func (w *WAL) Path() string { return w.path }

// ReadWALFile parses a WAL of RoundRecords, tolerating a torn tail: a
// crash can truncate the final append mid-frame, so parsing stops at the
// first frame that fails to decode — a torn or corrupt frame, one not
// named "round", or an undecodable record — and `torn` reports whether
// such a tail was discarded. Records before the tear are returned intact
// (each is independently CRC-protected). A missing file reads as an
// empty log.
func ReadWALFile(path string) (records []RoundRecord, torn bool, err error) {
	raw, torn, err := ReadRawWALFile(path)
	for _, r := range raw {
		if r.Name != walRecordFrame {
			return records, true, nil
		}
		rec, err := decodeRoundRecord(r.Payload)
		if err != nil {
			return records, true, nil
		}
		records = append(records, rec)
	}
	return records, torn, err
}
