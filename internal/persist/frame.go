package persist

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// Magic identifies a framed checkpoint stream (8 bytes; the trailing
// digit is the format version).
const Magic = "FEDORAC1"

// WALMagic identifies a write-ahead log stream.
const WALMagic = "FEDORAW1"

// endFrameName marks the trailer frame; its payload is the u64 count of
// preceding frames, which lets the reader distinguish a cleanly closed
// stream from one truncated at a frame boundary.
const endFrameName = "!end"

// maxNameLen bounds frame names; anything longer is corruption.
const maxNameLen = 256

// frameReadChunk bounds single allocations while reading payloads, so a
// corrupted length prefix cannot demand gigabytes up front.
const frameReadChunk = 1 << 20

// FrameWriter emits CRC-protected frames to an underlying writer.
type FrameWriter struct {
	w      io.Writer
	frames uint64
	closed bool
}

// NewFrameWriter writes the stream magic and returns a writer.
func NewFrameWriter(w io.Writer, magic string) (*FrameWriter, error) {
	if _, err := io.WriteString(w, magic); err != nil {
		return nil, err
	}
	return &FrameWriter{w: w}, nil
}

// WriteFrame appends one named frame.
func (fw *FrameWriter) WriteFrame(name string, payload []byte) error {
	return fw.WriteFrameFrom(name, int64(len(payload)), payloadOf(payload))
}

// WriteFrameFrom appends one named frame whose size-byte payload write
// produces, so a payload streamed from elsewhere — a cluster member's
// reply — goes to the underlying writer without being held whole. A
// payload that writes other than size bytes fails the frame.
func (fw *FrameWriter) WriteFrameFrom(name string, size int64, write func(w io.Writer) error) error {
	if fw.closed {
		return fmt.Errorf("persist: write to closed frame stream")
	}
	if len(name) == 0 || len(name) > maxNameLen {
		return fmt.Errorf("persist: frame name length %d out of range", len(name))
	}
	if err := writeFrame(fw.w, name, size, write); err != nil {
		return err
	}
	fw.frames++
	return nil
}

// Close writes the trailer frame. The underlying writer is not closed.
func (fw *FrameWriter) Close() error {
	if fw.closed {
		return nil
	}
	var count [8]byte
	binary.LittleEndian.PutUint64(count[:], fw.frames)
	if err := writeRawFrame(fw.w, endFrameName, count[:]); err != nil {
		return err
	}
	fw.closed = true
	return nil
}

// FrameSize is the length in a stream of a frame named name with a
// size-byte payload.
func FrameSize(name string, size int64) int64 { return 4 + int64(len(name)) + 8 + size + 4 }

func writeRawFrame(w io.Writer, name string, payload []byte) error {
	return writeFrame(w, name, int64(len(payload)), payloadOf(payload))
}

// payloadOf writes a payload already in hand.
func payloadOf(b []byte) func(w io.Writer) error {
	return func(w io.Writer) error {
		_, err := w.Write(b)
		return err
	}
}

// writeFrame is the frame layout's one writer: name length, name,
// payload length, the size-byte payload write produces, and the CRC
// over name ‖ payload, computed as the payload's bytes pass.
func writeFrame(w io.Writer, name string, size int64, write func(w io.Writer) error) error {
	var head [12]byte
	binary.LittleEndian.PutUint32(head[:4], uint32(len(name)))
	if _, err := w.Write(head[:4]); err != nil {
		return err
	}
	if _, err := io.WriteString(w, name); err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(head[4:], uint64(size))
	if _, err := w.Write(head[4:]); err != nil {
		return err
	}
	cw := &crcWriter{w: w, crc: crc32.ChecksumIEEE([]byte(name))}
	if err := write(cw); err != nil {
		return err
	}
	if cw.n != size {
		return fmt.Errorf("persist: frame %q payload is %d bytes, declared %d", name, cw.n, size)
	}
	binary.LittleEndian.PutUint32(head[:4], cw.crc)
	_, err := w.Write(head[:4])
	return err
}

// crcWriter passes writes through to w, counting them and folding them
// into a running CRC32-IEEE.
type crcWriter struct {
	w   io.Writer
	crc uint32
	n   int64
}

func (cw *crcWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.crc = crc32.Update(cw.crc, crc32.IEEETable, p[:n])
	cw.n += int64(n)
	return n, err
}

// FrameReader consumes a framed stream.
type FrameReader struct {
	r     io.Reader
	seen  uint64
	ended bool
}

// NewFrameReader validates the stream magic and returns a reader.
func NewFrameReader(r io.Reader, magic string) (*FrameReader, error) {
	got := make([]byte, len(magic))
	if _, err := io.ReadFull(r, got); err != nil {
		return nil, fmt.Errorf("%w: missing magic: %v", ErrCorrupt, err)
	}
	if string(got) != magic {
		return nil, fmt.Errorf("%w: bad magic %q (want %q)", ErrCorrupt, got, magic)
	}
	return &FrameReader{r: r}, nil
}

// Next returns the next frame. It returns io.EOF after the trailer
// frame; a stream that ends WITHOUT a trailer yields an ErrCorrupt-
// wrapped error instead, so truncation at a frame boundary is caught.
func (fr *FrameReader) Next() (name string, payload []byte, err error) {
	if fr.ended {
		return "", nil, io.EOF
	}
	name, payload, err = readFrame(fr.r)
	if err == io.EOF {
		return "", nil, fmt.Errorf("%w: stream ended without trailer frame", ErrCorrupt)
	}
	if err != nil {
		return "", nil, err
	}
	fr.seen++
	if name == endFrameName {
		if len(payload) != 8 || binary.LittleEndian.Uint64(payload) != fr.seen-1 {
			return "", nil, fmt.Errorf("%w: trailer frame count mismatch", ErrCorrupt)
		}
		fr.ended = true
		return "", nil, io.EOF
	}
	return name, payload, nil
}

// readFrame parses one frame — name length, name, payload length,
// payload, CRC — with no trailer rule: the one frame parser under both
// the checkpoint reader (Next) and the WAL, which has no trailer and ends
// at EOF. io.EOF is returned only at a clean frame boundary; anything
// torn or failing its CRC is ErrCorrupt.
func readFrame(r io.Reader) (string, []byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return "", nil, io.EOF
		}
		return "", nil, fmt.Errorf("%w: truncated frame header: %v", ErrCorrupt, err)
	}
	nameLen := binary.LittleEndian.Uint32(hdr[:])
	if nameLen == 0 || nameLen > maxNameLen {
		return "", nil, fmt.Errorf("%w: frame name length %d out of range", ErrCorrupt, nameLen)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(r, name); err != nil {
		return "", nil, fmt.Errorf("%w: truncated frame name: %v", ErrCorrupt, err)
	}
	var plen [8]byte
	if _, err := io.ReadFull(r, plen[:]); err != nil {
		return "", nil, fmt.Errorf("%w: truncated payload length: %v", ErrCorrupt, err)
	}
	payload, err := readPayload(r, binary.LittleEndian.Uint64(plen[:]))
	if err != nil {
		return "", nil, err
	}
	var tail [4]byte
	if _, err := io.ReadFull(r, tail[:]); err != nil {
		return "", nil, fmt.Errorf("%w: truncated frame CRC: %v", ErrCorrupt, err)
	}
	if crc32ChecksumFrame(name, payload) != binary.LittleEndian.Uint32(tail[:]) {
		return "", nil, fmt.Errorf("%w: CRC mismatch in frame %q", ErrCorrupt, name)
	}
	return string(name), payload, nil
}

// crc32ChecksumFrame computes the frame checksum over name ‖ payload.
func crc32ChecksumFrame(name, payload []byte) uint32 {
	crc := crc32.NewIEEE()
	crc.Write(name)
	crc.Write(payload)
	return crc.Sum32()
}

// readPayload reads n bytes in bounded chunks, so a corrupted length
// prefix fails with a clean truncation error instead of a giant
// allocation.
func readPayload(r io.Reader, n uint64) ([]byte, error) {
	var buf bytes.Buffer
	for n > 0 {
		chunk := n
		if chunk > frameReadChunk {
			chunk = frameReadChunk
		}
		if _, err := io.CopyN(&buf, r, int64(chunk)); err != nil {
			return nil, fmt.Errorf("%w: truncated frame payload: %v", ErrCorrupt, err)
		}
		n -= chunk
	}
	return buf.Bytes(), nil
}
