// Package fault is a deterministic, seed-driven fault-injection engine
// for chaos-testing the FEDORA stack. A Plan — loadable from JSON via the
// -fault-plan flag — holds Rules that target devices by name (glob) and
// inject transient read/write errors, latency spikes, bit-flip corruption
// of stored pages, trip-after-N permanent failures, and named in-process
// crash points.
//
// Plan.Wrap interposes an Injector between any component and its
// device.Device; the controller wires it under the RAW/buffer ORAMs, so
// injected faults surface through the real call stack (ORAM → TEE →
// shard engine → controller → API) exactly as a dying SSD's would.
//
// Determinism: each wrapped device gets its own RNG seeded from
// (Plan.Seed, device name), and an Injector draws under its own lock, so
// the same plan over the same workload injects the same faults whenever
// each device's ops arrive in a fixed order — at any shard count, and at
// one reader of the main ORAM's split read (fedora.Config.ShardWorkers 1,
// or GOMAXPROCS 1). With more readers, up to GOMAXPROCS goroutines issue
// the main device's PeekAts in scheduler order, so which read draws which
// fault does not reproduce. Every injected error wraps device.ErrInjected;
// bit flips are silent (they corrupt data the TEE later rejects with
// tee.ErrAuthFailed).
//
// Injection surface: error, trip and bitflip rules apply to the DATA
// channels — ReadAt/WriteAt and PeekAt/PokeAt (the RAW ORAM moves bucket
// bytes through Peek/Poke and models timing separately with ChargeN, so
// Peek is a read and Poke is a write as far as the failure model cares).
// Latency rules apply to the TIMING channels — ReadAt/WriteAt durations
// and Charge/ChargeN. Snapshot, restore and recovery are unaffected:
// they serialize the underlying simulator device directly and never pass
// through the wrapper, the way a recovery path reading a replacement
// disk would bypass the dying one.
package fault

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"time"

	"repro/internal/device"
)

// Fault kinds a Rule can inject.
const (
	KindTransient = "transient" // fail with probability P, then recover
	KindLatency   = "latency"   // add LatencyUS microseconds to the op
	KindBitflip   = "bitflip"   // flip one random bit in the data
	KindTrip      = "trip"      // permanent failure after After ops
	KindCrash     = "crash"     // arm the named crash Point (process-level)
)

// Rule describes one fault source. Zero-valued fields take defaults:
// Op "" matches both reads and writes, P 0 means "always" for latency and
// bitflip kinds, Count 0 means unlimited injections.
type Rule struct {
	// Device is a glob over wrapped-device names ("ssd", "shard1/ssd",
	// "shard*/ssd", "*"). At most one '*' is supported.
	Device string `json:"device"`
	// Op restricts the rule to "read" or "write" ("" = both).
	Op string `json:"op,omitempty"`
	// Kind is one of the Kind* constants.
	Kind string `json:"kind"`
	// P is the per-op injection probability for transient (required) and,
	// optionally, latency/bitflip rules (0 = every matched op).
	P float64 `json:"p,omitempty"`
	// After skips the first After matched operations before the rule can
	// fire (for trip: the success budget).
	After uint64 `json:"after,omitempty"`
	// Count caps how many times the rule injects (0 = unlimited).
	Count int `json:"count,omitempty"`
	// LatencyUS is the spike added by latency rules, in microseconds.
	LatencyUS int64 `json:"latency_us,omitempty"`
	// Point names the crash point armed by crash rules.
	Point string `json:"point,omitempty"`
}

// matchesOp reports whether the rule applies to the given op direction.
func (r *Rule) matchesOp(op string) bool {
	return r.Op == "" || r.Op == op
}

// matchGlob matches name against a pattern with at most one '*'.
func matchGlob(pattern, name string) bool {
	for i := 0; i < len(pattern); i++ {
		if pattern[i] != '*' {
			continue
		}
		pre, suf := pattern[:i], pattern[i+1:]
		return len(name) >= len(pre)+len(suf) &&
			name[:len(pre)] == pre && name[len(name)-len(suf):] == suf
	}
	return pattern == name
}

// ruleState is one rule's mutable bookkeeping inside an Injector.
type ruleState struct {
	rule     Rule
	seen     uint64 // matched ops so far
	injected int    // injections so far
	tripped  bool
}

// budgetLeft reports whether the Count cap still allows an injection.
func (rs *ruleState) budgetLeft() bool {
	return rs.rule.Count == 0 || rs.injected < rs.rule.Count
}

// Counters tallies what an Injector has done, per fault kind.
type Counters struct {
	Transients int // injected transient errors
	Trips      int // ops failed by a tripped rule
	Bitflips   int // bits flipped
	Latencies  int // latency spikes added
}

// Injector wraps a device.Device and applies the plan rules whose Device
// glob matched its name. It implements device.Device.
type Injector struct {
	name  string
	inner device.Device

	mu    sync.Mutex
	rng   *rand.Rand
	rules []*ruleState
	ctr   Counters
}

// newInjector builds the per-device injector; rules is non-empty.
func newInjector(name string, inner device.Device, seed int64, rules []Rule) *Injector {
	h := fnv.New64a()
	h.Write([]byte(name))
	in := &Injector{
		name:  name,
		inner: inner,
		rng:   rand.New(rand.NewSource(seed ^ int64(h.Sum64()))),
	}
	for _, r := range rules {
		in.rules = append(in.rules, &ruleState{rule: r})
	}
	return in
}

// Name returns the device name this injector was wrapped under.
func (in *Injector) Name() string { return in.name }

// Stats returns the injection tallies so far.
func (in *Injector) Counters() Counters {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.ctr
}

// decision is the outcome of evaluating the rules for one operation.
type decision struct {
	err     error
	flipBit int // bit index to flip in the n-byte payload, -1 = none
}

// apply walks the data-channel rules (trip, transient, bitflip) for one
// op of n payload bytes. Latency rules are handled by applyLatency on
// the timing channel and are skipped here without advancing, so the
// error/bitflip schedule depends only on the data-op sequence.
// Caller-visible side effects are decided under in.mu so the RNG
// stream, and therefore the whole fault schedule, is deterministic.
func (in *Injector) apply(op string, addr uint64, n int) decision {
	in.mu.Lock()
	defer in.mu.Unlock()
	d := decision{flipBit: -1}
	for _, rs := range in.rules {
		if rs.rule.Kind == KindLatency || !rs.rule.matchesOp(op) {
			continue
		}
		rs.seen++
		switch rs.rule.Kind {
		case KindTrip:
			if rs.tripped || rs.seen > rs.rule.After {
				rs.tripped = true
				in.ctr.Trips++
				d.err = fmt.Errorf("fault %s: %s at %d tripped: %w", in.name, op, addr, device.ErrInjected)
				return d
			}
		case KindTransient:
			if rs.seen > rs.rule.After && rs.budgetLeft() && in.rng.Float64() < rs.rule.P {
				rs.injected++
				in.ctr.Transients++
				d.err = fmt.Errorf("fault %s: transient %s error at %d: %w", in.name, op, addr, device.ErrInjected)
				return d
			}
		case KindBitflip:
			if rs.seen > rs.rule.After && rs.budgetLeft() && n > 0 && d.flipBit < 0 &&
				(rs.rule.P == 0 || in.rng.Float64() < rs.rule.P) {
				rs.injected++
				in.ctr.Bitflips++
				d.flipBit = in.rng.Intn(n * 8)
			}
		}
	}
	return d
}

// ReadAt implements device.Device. A bit flip corrupts the returned
// buffer (a media read error the device did not catch).
func (in *Injector) ReadAt(addr uint64, p []byte) (time.Duration, error) {
	d := in.apply("read", addr, len(p))
	if d.err != nil {
		return 0, d.err
	}
	dur, err := in.inner.ReadAt(addr, p)
	if err != nil {
		return dur, err
	}
	if d.flipBit >= 0 {
		p[d.flipBit/8] ^= 1 << (d.flipBit % 8)
	}
	return dur + in.applyLatency("read"), nil
}

// WriteAt implements device.Device. A bit flip corrupts the stored page:
// the write is performed with one bit inverted, so the damage persists
// until the page is rewritten and is only detected when the TEE layer
// authenticates a later read.
func (in *Injector) WriteAt(addr uint64, p []byte) (time.Duration, error) {
	d := in.apply("write", addr, len(p))
	if d.err != nil {
		return 0, d.err
	}
	if d.flipBit >= 0 {
		corrupt := make([]byte, len(p))
		copy(corrupt, p)
		corrupt[d.flipBit/8] ^= 1 << (d.flipBit % 8)
		p = corrupt
	}
	dur, err := in.inner.WriteAt(addr, p)
	if err != nil {
		return dur, err
	}
	return dur + in.applyLatency("write"), nil
}

// PeekAt implements device.Device. The RAW ORAM reads bucket bytes
// through PeekAt (timing is charged separately), so it is a read on the
// data channel: error, trip and bitflip rules apply; latency rules
// cannot (a Peek carries no duration) and their extra time is dropped.
func (in *Injector) PeekAt(addr uint64, p []byte) error {
	d := in.apply("read", addr, len(p))
	if d.err != nil {
		return d.err
	}
	if err := in.inner.PeekAt(addr, p); err != nil {
		return err
	}
	if d.flipBit >= 0 {
		p[d.flipBit/8] ^= 1 << (d.flipBit % 8)
	}
	return nil
}

// PokeAt implements device.Device: a write on the data channel (the RAW
// ORAM stores bucket bytes through it). A bit flip corrupts the stored
// page without touching the caller's buffer.
func (in *Injector) PokeAt(addr uint64, p []byte) error {
	d := in.apply("write", addr, len(p))
	if d.err != nil {
		return d.err
	}
	if d.flipBit >= 0 {
		corrupt := make([]byte, len(p))
		copy(corrupt, p)
		corrupt[d.flipBit/8] ^= 1 << (d.flipBit % 8)
		p = corrupt
	}
	return in.inner.PokeAt(addr, p)
}

// Charge implements device.Device. Accounting never fails, but latency
// rules spike it: components that model timing through Charge (the RAW
// ORAM charges batched bucket transfers this way) see the slowdown here.
func (in *Injector) Charge(op device.Op, addr uint64, n int) time.Duration {
	return in.inner.Charge(op, addr, n) + in.applyLatency(opName(op))
}

// ChargeN implements device.Device; latency rules apply as in Charge.
func (in *Injector) ChargeN(op device.Op, n, count int) time.Duration {
	return in.inner.ChargeN(op, n, count) + in.applyLatency(opName(op))
}

func opName(op device.Op) string {
	if op == device.OpWrite {
		return "write"
	}
	return "read"
}

// applyLatency evaluates ONLY latency rules for one timing-channel op.
// Other kinds neither fire nor advance their seen counters here, so the
// error/bitflip schedule depends only on the data-channel op sequence.
func (in *Injector) applyLatency(op string) time.Duration {
	in.mu.Lock()
	defer in.mu.Unlock()
	var extra time.Duration
	for _, rs := range in.rules {
		if rs.rule.Kind != KindLatency || !rs.rule.matchesOp(op) {
			continue
		}
		rs.seen++
		if rs.seen > rs.rule.After && rs.budgetLeft() && (rs.rule.P == 0 || in.rng.Float64() < rs.rule.P) {
			rs.injected++
			in.ctr.Latencies++
			extra += time.Duration(rs.rule.LatencyUS) * time.Microsecond
		}
	}
	return extra
}

// Stats implements device.Device.
func (in *Injector) Stats() device.Stats { return in.inner.Stats() }

// ResetStats implements device.Device.
func (in *Injector) ResetStats() { in.inner.ResetStats() }

// Capacity implements device.Device.
func (in *Injector) Capacity() uint64 { return in.inner.Capacity() }

// PageSize implements device.Device.
func (in *Injector) PageSize() int { return in.inner.PageSize() }
