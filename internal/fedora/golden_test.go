package fedora

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/bufferoram"
	"repro/internal/persist"
)

// The state-bytes goldens: SHA-256 of the pipeline blob
// (Controller.SnapshotShard(0), which was the whole one-shard snapshot
// until the engine container became the one snapshot format) after six
// rounds of a fixed seeded request list, recorded at the commit BEFORE
// the ORAM data path was made allocation-free (PR 13's parent). The
// snapshot carries the tree bytes on the device, the stash in id order,
// every bucket counter and every RNG position, so an equal hash proves
// that buffer reuse moved no stored byte, eviction choice or RNG draw.
// A change that moves state layout on purpose re-records these and says
// so in CHANGES.md.
//
// The RAW-backend cases carry a second hash, taken after zeroing the
// tee.Engine work counters (BytesOpened, GroupsOpened, ...), which the
// snapshot also holds. Merged path reads (PR 14) open each bucket once
// per chunk instead of once per access, so the full hashes were
// re-recorded there (5 247 -> 741 groups opened in the sim case); the
// *Stored hashes were recorded on PR 14's parent and did not move: every
// byte but the open counters is where per-access reads left it.
//
// All five were re-recorded when the engine moved from AES-CTR +
// HMAC-SHA256 to AES-GCM, which changes every sealed byte on the device
// and the engine section's version; TestGoldenPlainState, recorded
// before that move, held.
//
// The *Container hashes are of the whole Controller.Snapshot(): the
// engine container, carrying the config digest and the round, around
// that same pipeline blob. They were recorded when the container became
// the snapshot format at every shard count, with every hash above
// unmoved.
const (
	goldenFedoraState   = "2c856d22a6bfae0a3a4194b860d644051fb16880f0c6e447d0a65e064199f986"
	goldenLazyDPState   = "f4e0ff1645c07d7f0a99355cd323b57d3f55990a1fe7bddfa8a23e541ffbf420"
	goldenPathPlusState = "0ff656792fd2d98c83c62ba947512028abfeefa318428cfcafa0319aa63c859b"

	goldenFedoraStored = "150a948141c0a38f5d35923ef90edb178018e44d899aa544eccece16e287467d"
	goldenLazyDPStored = "e4804b2071ee16321b876ac6e18488117b493acf0396de9710f8bb2d07f699d9"

	goldenFedoraContainer   = "4087e1cfe111b54401a75ccbac0388edc013afea9c37d3bf02c535f977950281"
	goldenLazyDPContainer   = "d0f2e21b1f0b785d396efac1cfd62d0690341cb577f425b84969c4d73b8d401d"
	goldenPathPlusContainer = "e88af457dc96176f8e94180f2a93274fd4258d673cf033684951991239be1f9f"

	// TestGoldenPlainState's oracle.
	goldenFedoraPlain   = "91090aaeb2f1547e7d53080490bcd2f9146867418219fc99b837160c589ee5c2"
	goldenLazyDPPlain   = "fcfb9cf4811c95e1e8e8b639495b5f8e84f9acafc67a3ee7243d1e0a35f22234"
	goldenPathPlusPlain = "87337041531b3ca439d57d4007ba94e8a2d3a1eddaf20d809f1214ab308c4e62"
	goldenFedoraTree    = "bcd13a7c309d5b551b5d31d8a8fc6438c46b9389395aae8fc43c7b456ec5cc0e"
	goldenLazyDPTree    = "113e957f76d173f14e77935c5aca7316cd2504ef2fd9f4e0d9f0e1fd412be89e"
)

// goldenCase is one configuration the golden tests run six seeded
// rounds on, with the hashes each test expects of it.
type goldenCase struct {
	name      string
	state     string // TestGoldenStateBytes: the pipeline blob
	stored    string // ... after c.parts[0].engine.ResetStats(); "" = not checked
	container string // ... the whole snapshot, before the reset
	plain     string // TestGoldenPlainState: the pipeline blob's plaintext and every row
	tree      string // ... every written main-tree bucket's plaintext; "" = not RAW
	stage     bool   // stage every round before its BeginRound
	edit      func(t *testing.T, c *Config)
}

// The staged cases must hash like their unstaged twins: staging moves
// where a round's plan, fetch and write-back run, never what the ORAMs
// execute. On pathoram+ the stage stays queued and runs inline.
func goldenCases() []goldenCase {
	fedora := func(name string, stage bool, edit func(*testing.T, *Config)) goldenCase {
		return goldenCase{name, goldenFedoraState, goldenFedoraStored, goldenFedoraContainer, goldenFedoraPlain, goldenFedoraTree, stage, edit}
	}
	pathPlus := func(name string, stage bool) goldenCase {
		return goldenCase{name, goldenPathPlusState, "", goldenPathPlusContainer, goldenPathPlusPlain, "", stage, func(_ *testing.T, c *Config) {
			c.Backend = BackendPathORAMPlus
			c.EvictPeriod = 0
		}}
	}
	return []goldenCase{
		fedora("sim", false, func(*testing.T, *Config) {}),
		fedora("sim-prefetch", true, func(*testing.T, *Config) {}),
		fedora("file", false, func(t *testing.T, c *Config) { c.Storage = fileSpec(t) }),
		fedora("file-prefetch", true, func(t *testing.T, c *Config) { c.Storage = fileSpec(t) }),
		{"lazydp", goldenLazyDPState, goldenLazyDPStored, goldenLazyDPContainer, goldenLazyDPPlain, goldenLazyDPTree, false, func(_ *testing.T, c *Config) {
			c.Aggregator = bufferoram.LazyDP{Clip: 1, Sigma: 0.1}
		}},
		pathPlus("pathoram+", false),
		pathPlus("pathoram+-staged", true),
	}
}

// goldenController builds tc's controller and runs the six seeded rounds.
func goldenController(t *testing.T, tc goldenCase) *Controller {
	t.Helper()
	// BucketBytes 512 and EvictPeriod 16 give a 7-level main tree with an
	// eviction every 16 write-backs, so the six rounds run ~60 evictions
	// whose greedy choices all land in the hash.
	cfg := Config{
		NumRows: 1024, Dim: 4, Epsilon: 1, Seed: 77,
		MaxClientsPerRound: 16, MaxFeaturesPerClient: 16, LearningRate: 0.5,
		Encrypt: true, HasScratchpad: true, BucketBytes: 512, EvictPeriod: 16,
	}
	tc.edit(t, &cfg)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	for _, reqs := range randomWorkload(5, 6, 16, 12, cfg.NumRows, cfg.Dim) {
		if tc.stage {
			if err := c.StageRound(reqs); err != nil {
				t.Fatal(err)
			}
		}
		goldenRound(t, c, reqs)
	}
	return c
}

func TestGoldenStateBytes(t *testing.T) {
	for _, tc := range goldenCases() {
		t.Run(tc.name, func(t *testing.T) {
			c := goldenController(t, tc)
			if got, n := snapshotHash(t, c); got != tc.state {
				t.Errorf("pipeline blob sha256 = %s, want %s (%d bytes)", got, tc.state, n)
			}
			snap, err := c.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if sum := sha256.Sum256(snap); hex.EncodeToString(sum[:]) != tc.container {
				t.Errorf("snapshot sha256 = %x, want %s (%d bytes)", sum, tc.container, len(snap))
			}
			if tc.stored == "" {
				return
			}
			t.Logf("tee engine work before reset: %+v", c.parts[0].engine.Stats())
			c.parts[0].engine.ResetStats()
			if got, n := snapshotHash(t, c); got != tc.stored {
				t.Errorf("pipeline blob sha256 without engine counters = %s, want %s (%d bytes)", got, tc.stored, n)
			}
		})
	}
}

// TestGoldenPlainState is the plaintext oracle beside the state-bytes
// goldens: after the same six rounds it hashes what the sealed state
// decrypts to rather than the bytes it is sealed into, so a change to
// the seal alone (cipher, mode, tag) must leave it where it is while the
// ciphertext goldens above move. It hashes
//   - every section of the pipeline blob except the ssd device's
//     bytes, which are ciphertext, and except the engine section's
//     version byte, which names the seal; then every row's PeekRow;
//   - every written main-tree bucket, opened at its counter (RAW only).
//
// Both were recorded before the memory-encryption engine moved from
// AES-CTR + HMAC-SHA256 to AES-GCM.
func TestGoldenPlainState(t *testing.T) {
	for _, tc := range goldenCases() {
		t.Run(tc.name, func(t *testing.T) {
			c := goldenController(t, tc)
			if got := plainStateHash(t, c); got != tc.plain {
				t.Errorf("plaintext state sha256 = %s, want %s", got, tc.plain)
			}
			if tc.tree == "" {
				return
			}
			h := sha256.New()
			var idxBuf [4]byte
			err := c.parts[0].raw.EachBucket(func(idx uint32, plain []byte) {
				binary.LittleEndian.PutUint32(idxBuf[:], idx)
				h.Write(idxBuf[:])
				h.Write(plain)
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.tree {
				t.Errorf("main-tree plaintext sha256 = %s, want %s", got, tc.tree)
			}
		})
	}
}

// plainStateHash hashes the pipeline blob of c's one shard section by
// section, skipping the ssd device and the engine's version byte, then
// every row.
func plainStateHash(t *testing.T, c *Controller) string {
	t.Helper()
	snap, err := c.SnapshotShard(0)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	section := func(b []byte) {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(b)))
		h.Write(n[:])
		h.Write(b)
	}
	d := decodeToScratchpad(t, c.cfg, snap)
	section(snap[:len(snap)-d.Remaining()]) // header through accountant
	section(d.Bytes())                      // scratchpad
	if !d.Bool() {
		t.Fatal("golden controller runs without an engine")
	}
	engine := d.Bytes()
	if len(engine) == 0 {
		t.Fatal("empty engine section")
	}
	section(engine[1:])
	section([]byte{d.U8()}) // backend
	section(d.Bytes())      // main oram
	section(d.Bytes())      // buffer oram
	d.Bytes()               // ssd device: ciphertext
	section(d.Bytes())      // dram device
	if err := d.Err(); err != nil || d.Remaining() != 0 {
		t.Fatalf("snapshot decode: %v (%d bytes left)", err, d.Remaining())
	}
	var f [4]byte
	for row := uint64(0); row < c.cfg.NumRows; row++ {
		v, err := c.PeekRow(row)
		if err != nil {
			t.Fatal(err)
		}
		for _, x := range v {
			binary.LittleEndian.PutUint32(f[:], math.Float32bits(x))
			h.Write(f[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// snapshotHash hashes the pipeline blob of c's one shard.
func snapshotHash(t *testing.T, c *Controller) (string, int) {
	t.Helper()
	snap, err := c.SnapshotShard(0)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(snap)
	return hex.EncodeToString(sum[:]), len(snap)
}

// goldenRound serves every requested row and submits a row-derived
// gradient with a row-derived sample count, one client at a time.
func goldenRound(t *testing.T, c *Controller, reqs [][]uint64) {
	t.Helper()
	r, err := c.BeginRound(reqs)
	if err != nil {
		t.Fatal(err)
	}
	for ci, rows := range reqs {
		if _, err := r.ServeEntries(rows); err != nil {
			t.Fatal(err)
		}
		grads := make([]RowGradient, len(rows))
		for i, row := range rows {
			g := make([]float32, c.cfg.Dim)
			for j := range g {
				g[j] = float32(int(row%11)-5)*0.125 + float32(j+ci)*0.03125
			}
			grads[i] = RowGradient{Row: row, Grad: g, Samples: 1 + int(row%3)}
		}
		if _, err := r.SubmitGradients(grads); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.Finish(); err != nil {
		t.Fatal(err)
	}
}

// decodeToScratchpad decodes a pipeline blob of cfg up to its
// scratchpad section: the header, both RNGs, the selector and the
// accountant.
func decodeToScratchpad(t *testing.T, cfg Config, snap []byte) *persist.Decoder {
	t.Helper()
	d := persist.NewDecoder(snap)
	if _, err := decodePipelineHeader(d, cfg); err != nil {
		t.Fatal(err)
	}
	d.Bytes() // rng
	d.Bytes() // selector rng
	if _, _, err := decodeSelector(d); err != nil {
		t.Fatal(err)
	}
	d.Bytes() // accountant
	return d
}
