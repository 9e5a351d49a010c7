package persist

import (
	"fmt"
	"io"
)

// metaFrameName holds the checkpoint-level metadata frame.
const metaFrameName = "!meta"

// checkpointVersion is the version stamped into the meta frame.
const checkpointVersion = 1

// Checkpoint is an ordered set of named component snapshots — one
// section per Snapshot()-capable component — plus the epoch number the
// Manager assigns. Sections keep insertion order so encoding is
// deterministic.
type Checkpoint struct {
	Epoch    uint64
	sections map[string][]byte
	order    []string
}

// NewCheckpoint returns an empty checkpoint.
func NewCheckpoint() *Checkpoint {
	return &Checkpoint{sections: make(map[string][]byte)}
}

// Put adds or replaces a section.
func (c *Checkpoint) Put(name string, payload []byte) {
	if _, dup := c.sections[name]; !dup {
		c.order = append(c.order, name)
	}
	c.sections[name] = payload
}

// Get returns a section's payload.
func (c *Checkpoint) Get(name string) ([]byte, bool) {
	p, ok := c.sections[name]
	return p, ok
}

// Sections lists section names in insertion order.
func (c *Checkpoint) Sections() []string {
	return append([]string(nil), c.order...)
}

// Encode writes the checkpoint as a framed stream.
func (c *Checkpoint) Encode(w io.Writer) error {
	fw, err := NewFrameWriter(w, Magic)
	if err != nil {
		return err
	}
	var meta Encoder
	meta.U32(checkpointVersion)
	meta.U64(c.Epoch)
	if err := fw.WriteFrame(metaFrameName, meta.Finish()); err != nil {
		return err
	}
	for _, name := range c.order {
		if err := fw.WriteFrame(name, c.sections[name]); err != nil {
			return err
		}
	}
	return fw.Close()
}

// CheckpointEncoder appends a checkpoint stream — byte for byte what
// Checkpoint.Encode writes for the same epoch and sections — to an
// Encoder one section at a time, so a section's producer encodes
// straight into the enclosing buffer instead of returning a blob for
// Put and Encode to copy. One section is open at a time.
type CheckpointEncoder struct {
	e      *Encoder
	frames uint64
	name   string // the open section
	mark   Mark
}

// BeginCheckpoint writes the stream magic and the meta frame.
func BeginCheckpoint(e *Encoder, epoch uint64) *CheckpointEncoder {
	c := &CheckpointEncoder{e: e}
	e.b = append(e.b, Magic...)
	c.BeginSection(metaFrameName)
	e.U32(checkpointVersion)
	e.U64(epoch)
	c.EndSection()
	return c
}

// BeginSection opens a frame; everything appended to the Encoder until
// EndSection is its payload.
func (c *CheckpointEncoder) BeginSection(name string) {
	c.e.U32(uint32(len(name)))
	c.e.b = append(c.e.b, name...)
	c.name, c.mark = name, c.e.BeginBytes()
}

// EndSection closes the open frame: payload length, then the CRC over
// name ‖ payload.
func (c *CheckpointEncoder) EndSection() {
	c.e.EndBytes(c.mark)
	c.e.U32(crc32ChecksumFrame([]byte(c.name), c.e.b[int(c.mark)+8:]))
	c.frames++
}

// Section appends a frame whose payload already exists.
func (c *CheckpointEncoder) Section(name string, payload []byte) {
	c.BeginSection(name)
	c.e.b = append(c.e.b, payload...)
	c.EndSection()
}

// Close writes the trailer frame.
func (c *CheckpointEncoder) Close() {
	frames := c.frames
	c.BeginSection(endFrameName)
	c.e.U64(frames)
	c.EndSection()
}

// DecodeCheckpoint parses a framed checkpoint stream, validating the
// magic, every frame CRC, and the trailer.
func DecodeCheckpoint(r io.Reader) (*Checkpoint, error) {
	fr, err := NewFrameReader(r, Magic)
	if err != nil {
		return nil, err
	}
	c := NewCheckpoint()
	sawMeta := false
	for {
		name, payload, err := fr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if name == metaFrameName {
			d := NewDecoder(payload)
			version := d.U32()
			c.Epoch = d.U64()
			if d.Err() != nil {
				return nil, fmt.Errorf("%w: malformed meta frame", ErrCorrupt)
			}
			if version != checkpointVersion {
				return nil, fmt.Errorf("%w: unsupported checkpoint version %d", ErrCorrupt, version)
			}
			sawMeta = true
			continue
		}
		c.Put(name, payload)
	}
	if !sawMeta {
		return nil, fmt.Errorf("%w: checkpoint missing meta frame", ErrCorrupt)
	}
	return c, nil
}
