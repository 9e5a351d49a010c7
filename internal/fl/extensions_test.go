package fl

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/fedora"
	"repro/internal/persist"
	"repro/internal/recmodel"
	"repro/internal/wire"
)

func TestLostDefaultKeepsSamples(t *testing.T) {
	// With a tiny ε many candidate rows are lost. LostDrop discards the
	// affected samples; LostDefault keeps training them on substituted
	// init values, so it must drop strictly fewer samples.
	drops := func(policy LostPolicy) int {
		tr := newTrainer(t, Config{
			Epsilon: 0.001, UsePrivate: true, Seed: 40,
			ClientsPerRound: 20, Lost: policy,
		})
		total := 0
		for r := 0; r < 8; r++ {
			rep, err := tr.RunRound()
			if err != nil {
				t.Fatal(err)
			}
			total += rep.DroppedSamples
		}
		return total
	}
	drop := drops(LostDrop)
	def := drops(LostDefault)
	if def >= drop {
		t.Errorf("LostDefault dropped %d samples vs LostDrop %d — substitution not happening", def, drop)
	}
	if drop == 0 {
		t.Error("test premise broken: LostDrop never dropped")
	}
}

func TestSecAggMatchesPlainAggregation(t *testing.T) {
	// Masked aggregation must land (up to fixed-point rounding) on the
	// same model as plain aggregation.
	run := func(useSecAgg bool) float64 {
		tr := newTrainer(t, Config{
			Epsilon: 1e9, UsePrivate: true, Seed: 41,
			ClientsPerRound: 10, LocalLR: 0.1, UseSecAgg: useSecAgg,
		})
		res, err := tr.Run(10)
		if err != nil {
			t.Fatal(err)
		}
		return res.AUC
	}
	plain := run(false)
	masked := run(true)
	if math.Abs(plain-masked) > 0.02 {
		t.Errorf("SecAgg AUC %v deviates from plain %v", masked, plain)
	}
}

// TestMLPSessionKeyUsesFullSeedAndRound: the dense-model SecAgg key
// must not repeat every 256 rounds or across seeds equal mod 256 (a
// repeated key repeats the pair masks, and the difference of two such
// uploads is the difference of one client's plaintext deltas), and must
// differ from the embedding plane's key for the same (seed, round).
func TestMLPSessionKeyUsesFullSeedAndRound(t *testing.T) {
	base := mlpSessionKey(7, 3)
	if base != mlpSessionKey(7, 3) {
		t.Fatal("session key not deterministic")
	}
	for name, other := range map[string][32]byte{
		"round+1":    mlpSessionKey(7, 4),
		"round+256":  mlpSessionKey(7, 3+256),
		"seed+256":   mlpSessionKey(7+256, 3),
		"seed+2^32":  mlpSessionKey(7+(1<<32), 3),
		"wire plane": wire.DeriveSessionKey(7, 3),
	} {
		if other == base {
			t.Errorf("%s: session key collides", name)
		}
	}
}

func TestDPFedAvgAddsNoiseButStillLearns(t *testing.T) {
	run := func(sigma float64) float64 {
		tr := newTrainer(t, Config{
			Epsilon: 1e9, UsePrivate: true, Seed: 42,
			ClientsPerRound: 40, LocalLR: 0.1, LocalEpochs: 2,
			DPClip: 1.0, DPSigma: sigma,
		})
		res, err := tr.Run(40)
		if err != nil {
			t.Fatal(err)
		}
		return res.AUC
	}
	noNoise := run(0) // clip only
	modest := run(0.01)
	huge := run(10.0)
	if modest < 0.52 {
		t.Errorf("modest DP noise destroyed learning: AUC %v", modest)
	}
	if noNoise < 0.55 {
		t.Errorf("clipping alone destroyed learning: AUC %v", noNoise)
	}
	// Catastrophic noise must hurt relative to clip-only.
	if huge > noNoise-0.02 {
		t.Errorf("sigma=10 AUC %v not below clip-only %v — noise not applied?", huge, noNoise)
	}
}

func TestClipL2(t *testing.T) {
	v := []float32{3, 4}
	clipL2(v, 1)
	var norm float64
	for _, x := range v {
		norm += float64(x) * float64(x)
	}
	if math.Abs(norm-1) > 1e-5 {
		t.Errorf("norm after clip = %v", norm)
	}
	w := []float32{0.1, 0}
	clipL2(w, 1)
	if w[0] != 0.1 {
		t.Error("in-norm vector modified")
	}
	z := []float32{0, 0}
	clipL2(z, 1)
	if z[0] != 0 {
		t.Error("zero vector modified")
	}
}

func TestSelectionPolicyReachesController(t *testing.T) {
	tr := newTrainer(t, Config{
		Epsilon: 1, UsePrivate: true, Seed: 43,
		ClientsPerRound: 10, Selection: fedora.SelectPopular,
	})
	if _, err := tr.RunRound(); err != nil {
		t.Fatal(err)
	}
	tr2 := newTrainer(t, Config{
		Epsilon: 1, UsePrivate: true, Seed: 43,
		ClientsPerRound: 10, Selection: fedora.SelectUnseen,
	})
	if _, err := tr2.RunRound(); err != nil {
		t.Fatal(err)
	}
}

func TestAttentionPoolingTrains(t *testing.T) {
	tr := newTrainer(t, Config{
		Epsilon: 1e9, UsePrivate: true, Seed: 44,
		ClientsPerRound: 20, Pooling: recmodel.PoolAttention,
	})
	res, err := tr.Run(10)
	if err != nil {
		t.Fatal(err)
	}
	if res.AUC <= 0.4 {
		t.Errorf("attention FL AUC = %v", res.AUC)
	}
}

func TestCumulativeEpsilonAccounting(t *testing.T) {
	tr := newTrainer(t, Config{Epsilon: 0.5, UsePrivate: true, Seed: 45, ClientsPerRound: 5})
	res, err := tr.Run(4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.CumulativeEpsilon-2.0) > 1e-9 {
		t.Errorf("cumulative eps = %v, want 4 rounds × 0.5 = 2", res.CumulativeEpsilon)
	}
	if res.AdversaryBound <= 0.5 || res.AdversaryBound >= 1 {
		t.Errorf("adversary bound = %v", res.AdversaryBound)
	}
}

func TestClientDropoutTolerated(t *testing.T) {
	tr := newTrainer(t, Config{
		Epsilon: 1e9, UsePrivate: true, Seed: 46,
		ClientsPerRound: 20, DropoutProb: 0.5,
	})
	sawDrop := false
	for r := 0; r < 5; r++ {
		rep, err := tr.RunRound()
		if err != nil {
			t.Fatal(err)
		}
		if rep.DroppedClients > 0 {
			sawDrop = true
		}
		if rep.DroppedClients == rep.Participants && rep.TrainedSamples > 0 {
			t.Error("all clients dropped yet samples trained")
		}
	}
	if !sawDrop {
		t.Error("50% dropout never dropped a client")
	}
	// Training still functions end to end.
	if _, err := tr.EvaluateAUC(); err != nil {
		t.Fatal(err)
	}
}

func TestFullDropoutLeavesTableUntouched(t *testing.T) {
	// Every client drops: entries travel main ORAM → buffer ORAM → main
	// ORAM with zero aggregated gradient, so the table must be unchanged.
	tr := newTrainer(t, Config{
		Epsilon: 1e9, UsePrivate: true, Seed: 47,
		ClientsPerRound: 5, DropoutProb: 1.0,
	})
	before, err := tr.Controller().PeekRow(3)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 3; r++ {
		if _, err := tr.RunRound(); err != nil {
			t.Fatal(err)
		}
	}
	after, err := tr.Controller().PeekRow(3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("row changed under total dropout: %v → %v", before, after)
		}
	}
}

func TestKaggleDenseFeaturesTrain(t *testing.T) {
	cfg := dataset.DefaultKaggleConfig()
	cfg.NumItems, cfg.NumUsers, cfg.SamplesPerUser = 500, 120, 30
	ds := dataset.GenerateKaggle(cfg)
	tr, err := New(Config{
		Dataset: ds, Dim: 8, Hidden: 16, UsePrivate: true,
		Epsilon: 1e9, Seed: 48, ClientsPerRound: 30, LocalLR: 0.1,
		LocalEpochs: 2, DenseIn: cfg.DenseDim,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tr.Run(25)
	if err != nil {
		t.Fatal(err)
	}
	// The dense path alone carries strong signal; learning must show.
	if res.AUC < 0.55 {
		t.Errorf("Kaggle-like AUC = %v", res.AUC)
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	tr := newTrainer(t, Config{Epsilon: 1e9, UsePrivate: true, Seed: 49, ClientsPerRound: 10})
	if _, err := tr.Run(5); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.SaveModel(&buf); err != nil {
		t.Fatal(err)
	}
	params, dim, rows, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if dim != 8 || len(rows) == 0 {
		t.Fatalf("dim=%d rows=%d", dim, len(rows))
	}
	// The snapshot agrees with the live table.
	live, err := tr.Controller().PeekRow(3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range live {
		if rows[3][i] != live[i] {
			t.Fatalf("row 3 snapshot mismatch")
		}
	}
	// MLP restores into a fresh trainer and scores identically.
	tr2 := newTrainer(t, Config{Epsilon: 1e9, UsePrivate: true, Seed: 999, ClientsPerRound: 10})
	if err := tr2.RestoreMLP(params); err != nil {
		t.Fatal(err)
	}
	// Offline inference from the snapshot alone:
	m := recmodel.New(recmodel.Config{Dim: dim, Hidden: 16, UsePrivate: true, Seed: 0})
	if err := m.MLP.SetParams(params); err != nil {
		t.Fatal(err)
	}
	src := recmodel.MapSource(rows)
	var scored int
	for _, u := range tr.cfg.Dataset.Users[:10] {
		for _, s := range u.Test {
			if _, ok := m.Predict(s, src); ok {
				scored++
			}
		}
	}
	if scored == 0 {
		t.Error("snapshot cannot score test samples")
	}
}

// TestLoadModelRefusesHugeRowCount: a model checkpoint whose row count
// claims 2^23 rows is refused before the count sizes anything. The
// checkpoint is a real one, re-framed with the count patched, so every
// frame's CRC holds.
func TestLoadModelRefusesHugeRowCount(t *testing.T) {
	tr := newTrainer(t, Config{Epsilon: 1e9, Seed: 49, ClientsPerRound: 10})
	var saved, patched bytes.Buffer
	if err := tr.SaveModel(&saved); err != nil {
		t.Fatal(err)
	}
	fr, err := persist.NewFrameReader(&saved, persist.Magic)
	if err != nil {
		t.Fatal(err)
	}
	fw, err := persist.NewFrameWriter(&patched, persist.Magic)
	if err != nil {
		t.Fatal(err)
	}
	for {
		name, payload, err := fr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if name == sectionModelRows {
			binary.LittleEndian.PutUint64(payload, 1<<23)
		}
		if err := fw.WriteFrame(name, payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, _, err = LoadModel(&patched)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a row count of 2^23 was loaded")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Errorf("refusing a row count of 2^23 allocated %d bytes", grew)
	}
}

func TestLoadModelErrors(t *testing.T) {
	if _, _, _, err := LoadModel(strings.NewReader("garbage")); err == nil {
		t.Error("garbage checkpoint accepted")
	}
	// A stream in any other format — the retired gob one began with a
	// type descriptor — is named as such, not half-decoded.
	_, _, _, err := LoadModel(strings.NewReader("\x3f\xff\x81\x03\x01\x01\x10legacyCheckpoint"))
	if err == nil || !strings.Contains(err.Error(), "not the") {
		t.Errorf("non-checkpoint stream: err = %v, want one naming the expected magic", err)
	}
}
