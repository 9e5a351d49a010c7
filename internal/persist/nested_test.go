package persist

import (
	"bytes"
	"math/rand"
	"testing"
)

// sectionTree is a random nested payload: some scalar fields, then
// children as length-prefixed sections, with loose bytes in between.
type sectionTree struct {
	tag      uint64
	raw      []byte
	children []*sectionTree
}

func randomSectionTree(rng *rand.Rand, depth int) *sectionTree {
	t := &sectionTree{tag: rng.Uint64(), raw: make([]byte, rng.Intn(40))}
	rng.Read(t.raw)
	if depth > 0 {
		for n := rng.Intn(4); n > 0; n-- {
			if rng.Intn(4) == 0 {
				t.children = append(t.children, &sectionTree{}) // empty child
			} else {
				t.children = append(t.children, randomSectionTree(rng, depth-1))
			}
		}
	}
	return t
}

// encodeCopying is the encoding the repo used before nested sections
// existed: each child builds its own blob and the parent copies it in.
func (t *sectionTree) encodeCopying() []byte {
	var e Encoder
	e.U64(t.tag)
	e.Bytes(t.raw)
	e.U32(uint32(len(t.children)))
	for _, c := range t.children {
		e.Bytes(c.encodeCopying())
		e.U8(0xAB) // a sibling field after the child
	}
	return e.Finish()
}

func (t *sectionTree) encodeInPlace(e *Encoder) {
	e.U64(t.tag)
	e.Bytes(t.raw)
	e.U32(uint32(len(t.children)))
	for _, c := range t.children {
		m := e.BeginBytes()
		c.encodeInPlace(e)
		e.EndBytes(m)
		e.U8(0xAB)
	}
}

func (t *sectionTree) check(tb testing.TB, d *Decoder) {
	tb.Helper()
	if got := d.U64(); got != t.tag {
		tb.Fatalf("tag = %d, want %d", got, t.tag)
	}
	if got := d.Bytes(); !bytes.Equal(got, t.raw) {
		tb.Fatalf("raw = %x, want %x", got, t.raw)
	}
	if got := d.U32(); int(got) != len(t.children) {
		tb.Fatalf("children = %d, want %d", got, len(t.children))
	}
	for _, c := range t.children {
		c.check(tb, NewDecoder(d.Bytes()))
		if d.U8() != 0xAB {
			tb.Fatal("sibling field after child lost")
		}
	}
	if err := d.Err(); err != nil {
		tb.Fatal(err)
	}
}

// TestEncoderNestedBytes: a child encoded between BeginBytes and
// EndBytes gives exactly the bytes of Bytes(child.Finish()) — empty
// children, children of children and siblings after a child included —
// whether or not the buffer was presized, and a Decoder walks the
// result.
func TestEncoderNestedBytes(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		tree := randomSectionTree(rand.New(rand.NewSource(seed)), 4)
		want := tree.encodeCopying()
		for _, grow := range []int{0, len(want) / 2, len(want), 2 * len(want)} {
			var e Encoder
			e.Grow(grow)
			tree.encodeInPlace(&e)
			if e.Len() != len(want) || !bytes.Equal(e.Finish(), want) {
				t.Fatalf("seed %d, Grow(%d): in-place encoding differs from the copying one (%d vs %d bytes)",
					seed, grow, e.Len(), len(want))
			}
		}
		d := NewDecoder(want)
		tree.check(t, d)
		if d.Remaining() != 0 {
			t.Fatalf("seed %d: %d bytes left over", seed, d.Remaining())
		}
	}
}

// TestEncoderGrowAllocatesOnce: after Grow(n) the next n bytes do not
// reallocate, nested sections included.
func TestEncoderGrowAllocatesOnce(t *testing.T) {
	payload := make([]byte, 1<<16)
	allocs := testing.AllocsPerRun(10, func() {
		var e Encoder
		e.Grow(8 + 8 + len(payload) + 4)
		m := e.BeginBytes()
		e.Bytes(payload)
		e.EndBytes(m)
		e.U32(7)
	})
	if allocs != 1 {
		t.Fatalf("presized encode made %v allocations, want 1", allocs)
	}
}

func TestEncoderExtendTruncate(t *testing.T) {
	var e Encoder
	e.U32(0xDEADBEEF)
	tail := e.Extend(6)
	copy(tail, "abcdef")
	e.Truncate(e.Len() - 2)
	count := e.ReserveU64()
	e.SetU64(count, 99)
	d := NewDecoder(e.Finish())
	if d.U32() != 0xDEADBEEF || string(d.take(4, "tail")) != "abcd" || d.U64() != 99 || d.Err() != nil || d.Remaining() != 0 {
		t.Fatalf("unexpected bytes %x (%v)", e.Finish(), d.Err())
	}
}

// checkpointInPlace builds the stream of cp with a CheckpointEncoder;
// the streamed sections are appended piecemeal between BeginSection and
// EndSection, the others handed over whole.
func checkpointInPlace(cp *Checkpoint, streamed map[string]bool) []byte {
	var e Encoder
	ce := BeginCheckpoint(&e, cp.Epoch)
	for _, name := range cp.Sections() {
		payload, _ := cp.Get(name)
		if streamed[name] {
			ce.BeginSection(name)
			for _, b := range payload { // as a SnapshotTo would
				e.U8(b)
			}
			ce.EndSection()
		} else {
			ce.Section(name, payload)
		}
	}
	ce.Close()
	return e.Finish()
}

// TestCheckpointEncoderMatchesEncode: the in-place container is byte
// for byte the stream Checkpoint.Encode writes, and decodes back.
func TestCheckpointEncoderMatchesEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 30; i++ {
		cp := NewCheckpoint()
		cp.Epoch = rng.Uint64() % 5
		streamed := map[string]bool{}
		for n := rng.Intn(5); n > 0; n-- {
			name := testSectionName(rng.Intn(1000))
			payload := make([]byte, rng.Intn(300)) // sometimes empty
			rng.Read(payload)
			cp.Put(name, payload)
			streamed[name] = rng.Intn(2) == 0
		}
		var want bytes.Buffer
		if err := cp.Encode(&want); err != nil {
			t.Fatal(err)
		}
		got := checkpointInPlace(cp, streamed)
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("case %d: in-place stream differs from Encode (%d vs %d bytes)", i, len(got), want.Len())
		}
		back, err := DecodeCheckpoint(bytes.NewReader(got))
		if err != nil {
			t.Fatal(err)
		}
		if back.Epoch != cp.Epoch || len(back.Sections()) != len(cp.Sections()) {
			t.Fatalf("case %d: decoded epoch %d with %d sections, want %d with %d",
				i, back.Epoch, len(back.Sections()), cp.Epoch, len(cp.Sections()))
		}
		for _, name := range cp.Sections() {
			a, _ := cp.Get(name)
			b, ok := back.Get(name)
			if !ok || !bytes.Equal(a, b) {
				t.Fatalf("case %d: section %q did not round-trip", i, name)
			}
		}
	}
}

func testSectionName(i int) string {
	return "shard/" + string(rune('a'+i%26)) + string(rune('a'+i/26%26))
}

// TestManagerSaveNext: epochs are numbered after the newest on disk and
// pruned to the newest keep in the same call.
func TestManagerSaveNext(t *testing.T) {
	m, err := OpenManager(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for want := uint64(1); want <= 5; want++ {
		cp := NewCheckpoint()
		cp.Put("s", []byte{byte(want)})
		got, err := m.SaveNext(cp, 3)
		if err != nil || got != want {
			t.Fatalf("SaveNext = %d, %v; want %d", got, err, want)
		}
	}
	epochs, err := m.Epochs()
	if err != nil {
		t.Fatal(err)
	}
	if len(epochs) != 3 || epochs[0] != 3 || epochs[2] != 5 {
		t.Fatalf("epochs after five SaveNext(keep 3) = %v, want [3 4 5]", epochs)
	}
	cp, _, err := m.LoadLatest()
	if err != nil || cp.Epoch != 5 {
		t.Fatalf("LoadLatest = epoch %v, %v", cp, err)
	}
}
