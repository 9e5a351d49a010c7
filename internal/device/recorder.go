package device

import (
	"sync"
	"time"
)

// Recorder wraps a Device and records the address of every data access —
// the observation an adversary sitting on the memory bus makes (threat
// model, Sec 4.1: "the attacker can observe … the access pattern
// (address, size, and timing) for data stored off-chip"). Obliviousness
// tests replay workloads against a Recorder and check statistical
// properties of the trace (e.g. leaf-uniformity of ORAM paths,
// independence from the accessed block).
type Recorder struct {
	inner Device

	mu     sync.Mutex
	reads  []uint64
	writes []uint64
}

// NewRecorder wraps inner.
func NewRecorder(inner Device) *Recorder {
	return &Recorder{inner: inner}
}

// ReadAddrs returns a copy of the recorded read addresses, in order.
func (r *Recorder) ReadAddrs() []uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]uint64(nil), r.reads...)
}

// WriteAddrs returns a copy of the recorded write addresses, in order.
func (r *Recorder) WriteAddrs() []uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]uint64(nil), r.writes...)
}

// Clear drops the recorded trace.
func (r *Recorder) Clear() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.reads = r.reads[:0]
	r.writes = r.writes[:0]
}

// ReadAt implements Device.
func (r *Recorder) ReadAt(addr uint64, p []byte) (time.Duration, error) {
	r.mu.Lock()
	r.reads = append(r.reads, addr)
	r.mu.Unlock()
	return r.inner.ReadAt(addr, p)
}

// WriteAt implements Device.
func (r *Recorder) WriteAt(addr uint64, p []byte) (time.Duration, error) {
	r.mu.Lock()
	r.writes = append(r.writes, addr)
	r.mu.Unlock()
	return r.inner.WriteAt(addr, p)
}

// PeekAt implements Device (unrecorded: simulator plumbing, invisible to
// the modelled adversary because the covering transfer was recorded by
// its Charge call).
func (r *Recorder) PeekAt(addr uint64, p []byte) error { return r.inner.PeekAt(addr, p) }

// PokeAt implements Device (unrecorded, see PeekAt).
func (r *Recorder) PokeAt(addr uint64, p []byte) error { return r.inner.PokeAt(addr, p) }

// Charge implements Device. The address is recorded: phantom-mode
// accounting stands in for the data transfer the adversary would see.
func (r *Recorder) Charge(op Op, addr uint64, n int) time.Duration {
	r.mu.Lock()
	if op == OpRead {
		r.reads = append(r.reads, addr)
	} else {
		r.writes = append(r.writes, addr)
	}
	r.mu.Unlock()
	return r.inner.Charge(op, addr, n)
}

// ChargeN implements Device. It records nothing: a path charged in one
// call (the RAW ORAM's whole-path charges) leaves no address in the
// trace, so today's trace is incomplete for those ORAMs — ROADMAP item
// 1(a) makes the recorder record what storage is asked for.
func (r *Recorder) ChargeN(op Op, n, count int) time.Duration {
	return r.inner.ChargeN(op, n, count)
}

// Stats implements Device.
func (r *Recorder) Stats() Stats { return r.inner.Stats() }

// ResetStats implements Device.
func (r *Recorder) ResetStats() { r.inner.ResetStats() }

// Capacity implements Device.
func (r *Recorder) Capacity() uint64 { return r.inner.Capacity() }

// PageSize implements Device.
func (r *Recorder) PageSize() int { return r.inner.PageSize() }
