package main

import (
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/device"
	"repro/internal/fedora"
	"repro/internal/fl"
	"repro/internal/wire"
)

// Decorators at the seams the program already exposes. Each one times
// the call it forwards and nothing else; with the tracer off they cost
// one atomic load. None is installed on an untraced (--trace 0) run.

// ---- seam A: fl.Orchestrator / fl.RoundHandle ------------------------

type tracedOrch struct {
	inner fl.Orchestrator
	tr    *tracer
}

func (o *tracedOrch) BeginRound(requests [][]uint64) (fl.RoundHandle, error) {
	k := o.tr.begin("fl.begin", 0, "")
	h, err := o.inner.BeginRound(requests)
	o.tr.end(k)
	if err != nil {
		return nil, err
	}
	base := tracedHandle{inner: h, tr: o.tr}
	// The trainer's wire plane picks its path by type assertion, so the
	// decorated handle must offer exactly what the inner one does.
	if w, ok := h.(fl.WireRound); ok {
		return &tracedWireHandle{tracedHandle: base, w: w}, nil
	}
	if a, ok := h.(aggregateSubmitter); ok {
		return &tracedAggHandle{tracedHandle: base, a: a}, nil
	}
	return &base, nil
}

func (o *tracedOrch) StageRound(requests [][]uint64) error {
	st, ok := o.inner.(fl.RoundStager)
	if !ok {
		return nil
	}
	k := o.tr.begin("fl.stage", 0, "")
	defer o.tr.end(k)
	return st.StageRound(requests)
}

func (o *tracedOrch) Round() uint64                         { return o.inner.Round() }
func (o *tracedOrch) EffectiveEpsilon() float64             { return o.inner.EffectiveEpsilon() }
func (o *tracedOrch) PeekRow(row uint64) ([]float32, error) { return o.inner.PeekRow(row) }

type tracedHandle struct {
	inner fl.RoundHandle
	tr    *tracer
}

// Serves run on the trainer's worker goroutines, which have no open
// span of their own: they adopt the round's.
func (h *tracedHandle) ServeEntry(row uint64) ([]float32, bool, error) {
	k := h.tr.begin("fl.serve", 0, "round")
	defer h.tr.end(k)
	return h.inner.ServeEntry(row)
}

func (h *tracedHandle) ServeEntries(rows []uint64) ([]fedora.EntryResult, error) {
	k := h.tr.begin("fl.serve", 0, "round")
	defer h.tr.end(k)
	return h.inner.ServeEntries(rows)
}

func (h *tracedHandle) SubmitGradient(row uint64, grad []float32, samples int) (bool, error) {
	k := h.tr.begin("fl.upload", 0, "")
	defer h.tr.end(k)
	return h.inner.SubmitGradient(row, grad, samples)
}

func (h *tracedHandle) SubmitGradients(grads []fedora.RowGradient) ([]bool, error) {
	k := h.tr.begin("fl.upload", 0, "")
	defer h.tr.end(k)
	return h.inner.SubmitGradients(grads)
}

func (h *tracedHandle) Finish() (fedora.RoundStats, error) {
	k := h.tr.begin("fl.finish", 0, "")
	defer h.tr.end(k)
	return h.inner.Finish()
}

type tracedWireHandle struct {
	tracedHandle
	w fl.WireRound
}

func (h *tracedWireHandle) SubmitUpload(batchID string, payload []byte) error {
	k := h.tr.begin("fl.upload", 0, "")
	defer h.tr.end(k)
	return h.w.SubmitUpload(batchID, payload)
}

func (h *tracedWireHandle) UnmaskAndApply(reveals []wire.Reveal) (fl.WireUnmaskSummary, error) {
	k := h.tr.begin("fl.upload", 0, "")
	defer h.tr.end(k)
	return h.w.UnmaskAndApply(reveals)
}

// aggregateSubmitter is fl's unexported trainer-side-plane capability.
type aggregateSubmitter interface {
	SubmitAggregates(aggs []fedora.RowAggregate) ([]bool, error)
}

type tracedAggHandle struct {
	tracedHandle
	a aggregateSubmitter
}

func (h *tracedAggHandle) SubmitAggregates(aggs []fedora.RowAggregate) ([]bool, error) {
	k := h.tr.begin("fl.upload", 0, "")
	defer h.tr.end(k)
	return h.a.SubmitAggregates(aggs)
}

// ---- http.RoundTripper / http.Handler --------------------------------

const spanHeader = "X-Bench-Span"

// opOf names a v2 request by its last path element ("/v2/rounds" is the
// begin).
func opOf(path string) string {
	switch {
	case path == "/v2/rounds":
		return "begin"
	case strings.HasPrefix(path, "/v2/rounds/"):
		if i := strings.LastIndexByte(path, '/'); i > len("/v2/rounds/") {
			return path[i+1:]
		}
		return "info"
	case strings.HasPrefix(path, "/v2/rows/"):
		return "row"
	case strings.HasPrefix(path, "/v2/admin/"):
		return "admin"
	default:
		return strings.Trim(strings.ReplaceAll(path, "/", "_"), "_")
	}
}

// tracedRT times one hop's client side and counts its traffic. prefix
// is "client.rt." for the trainer's SDK and "member.rt." for the
// coordinator's member clients, whose calls run on fan-out goroutines
// and adopt the open "cluster." span as parent.
type tracedRT struct {
	inner  http.RoundTripper
	tr     *tracer
	prefix string
	adopt  string

	requests atomic.Uint64
	bytes    atomic.Uint64 // request plus response bodies
}

func (rt *tracedRT) RoundTrip(req *http.Request) (*http.Response, error) {
	if !rt.tr.on.Load() {
		return rt.inner.RoundTrip(req)
	}
	k := rt.tr.begin(rt.prefix+opOf(req.URL.Path), 0, rt.adopt)
	// RoundTrippers must not mutate the caller's request; the span id
	// rides on a clone.
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.FormatInt(rt.tr.id(k), 10))
	rt.requests.Add(1)
	if req.ContentLength > 0 {
		rt.bytes.Add(uint64(req.ContentLength))
	}
	resp, err := rt.inner.RoundTrip(req)
	if err != nil {
		rt.tr.end(k)
		return nil, err
	}
	// The hop ends when the body has been read, not when headers arrive.
	resp.Body = &spanBody{ReadCloser: resp.Body, rt: rt, k: k}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	rt   *tracedRT
	k    tok
	once sync.Once
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.rt.bytes.Add(uint64(n))
	if err != nil {
		b.once.Do(func() { b.rt.tr.end(b.k) })
	}
	return n, err
}

func (b *spanBody) Close() error {
	b.once.Do(func() { b.rt.tr.end(b.k) })
	return b.ReadCloser.Close()
}

// tracedHandler times the server side of a hop; the span named by the
// request's span header is its parent.
func tracedHandler(inner http.Handler, tr *tracer, prefix string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !tr.on.Load() {
			inner.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		k := tr.begin(prefix+opOf(r.URL.Path), parent, "")
		defer tr.end(k)
		inner.ServeHTTP(w, r)
	})
}

// ---- api.Controller / api.Round --------------------------------------

// fedoraCtrl adapts *fedora.Controller to api.Controller, as
// api.NewServer does internally; embedding keeps every optional
// capability (Snapshotter, ShardPorter, Aborter, …) promoted.
type fedoraCtrl struct{ *fedora.Controller }

func (c fedoraCtrl) BeginRound(requests [][]uint64) (api.Round, error) {
	r, err := c.Controller.BeginRound(requests)
	if err != nil {
		return nil, err
	}
	return r, nil
}

func (c fedoraCtrl) BackendName() string { return c.Controller.Backend().String() }

// tracedFedora times the calls into a fedora controller ("fedora." spans).
type tracedFedora struct {
	fedoraCtrl
	tr *tracer
}

func (c tracedFedora) BeginRound(requests [][]uint64) (api.Round, error) {
	k := c.tr.begin("fedora.begin", 0, "")
	r, err := c.fedoraCtrl.BeginRound(requests)
	c.tr.end(k)
	if err != nil {
		return nil, err
	}
	return &tracedRound{inner: r, tr: c.tr, prefix: "fedora."}, nil
}

func (c tracedFedora) StageRound(requests [][]uint64) error {
	k := c.tr.begin("fedora.stage", 0, "")
	defer c.tr.end(k)
	return c.fedoraCtrl.StageRound(requests)
}

// tracedCoord times the calls into the cluster coordinator ("cluster."
// spans); the member RoundTripper adopts them as parents.
type tracedCoord struct {
	*cluster.Coordinator
	tr *tracer
}

func (c tracedCoord) BeginRound(requests [][]uint64) (api.Round, error) {
	k := c.tr.begin("cluster.begin", 0, "")
	r, err := c.Coordinator.BeginRound(requests)
	c.tr.end(k)
	if err != nil {
		return nil, err
	}
	return &tracedRound{inner: r, tr: c.tr, prefix: "cluster."}, nil
}

func (c tracedCoord) StageRound(requests [][]uint64) error {
	k := c.tr.begin("cluster.stage", 0, "")
	defer c.tr.end(k)
	return c.Coordinator.StageRound(requests)
}

type tracedRound struct {
	inner  api.Round
	tr     *tracer
	prefix string
}

func (r *tracedRound) ServeEntry(row uint64) ([]float32, bool, error) {
	k := r.tr.begin(r.prefix+"serve", 0, "")
	defer r.tr.end(k)
	return r.inner.ServeEntry(row)
}

func (r *tracedRound) ServeEntries(rows []uint64) ([]fedora.EntryResult, error) {
	k := r.tr.begin(r.prefix+"serve", 0, "")
	defer r.tr.end(k)
	return r.inner.ServeEntries(rows)
}

func (r *tracedRound) SubmitGradient(row uint64, grad []float32, n int) (bool, error) {
	k := r.tr.begin(r.prefix+"submit", 0, "")
	defer r.tr.end(k)
	return r.inner.SubmitGradient(row, grad, n)
}

func (r *tracedRound) SubmitGradients(grads []fedora.RowGradient) ([]bool, error) {
	k := r.tr.begin(r.prefix+"submit", 0, "")
	defer r.tr.end(k)
	return r.inner.SubmitGradients(grads)
}

func (r *tracedRound) SubmitAggregates(aggs []fedora.RowAggregate) ([]bool, error) {
	k := r.tr.begin(r.prefix+"submit", 0, "")
	defer r.tr.end(k)
	return r.inner.SubmitAggregates(aggs)
}

func (r *tracedRound) Finish() (fedora.RoundStats, error) {
	k := r.tr.begin(r.prefix+"finish", 0, "")
	defer r.tr.end(k)
	return r.inner.Finish()
}

// ctrlOrch drives an api.Controller as an fl.Orchestrator in-process —
// what fl's unexported localOrchestrator does for a bare controller —
// so a traced train_local round crosses the same "fedora." decorator as
// the served workloads.
type ctrlOrch struct {
	c api.Controller

	mu    sync.Mutex
	round uint64
	begun bool
}

func (o *ctrlOrch) BeginRound(requests [][]uint64) (fl.RoundHandle, error) {
	r, err := o.c.BeginRound(requests)
	if err != nil {
		return nil, err
	}
	o.mu.Lock()
	o.round, o.begun = o.c.Round(), true
	o.mu.Unlock()
	return r, nil
}

func (o *ctrlOrch) StageRound(requests [][]uint64) error { return o.c.StageRound(requests) }

func (o *ctrlOrch) Round() uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.begun {
		return o.round
	}
	return o.c.Round()
}

func (o *ctrlOrch) EffectiveEpsilon() float64             { return o.c.EffectiveEpsilon() }
func (o *ctrlOrch) PeekRow(row uint64) ([]float32, error) { return o.c.PeekRow(row) }

// ---- device.Device ---------------------------------------------------

const (
	devSSD = iota
	devDRAM
)

// sampleEvery is how many accounting or DRAM calls share one timed
// sample. A controller makes ~300k of them a round at oram_serve's
// geometry; two clock reads on each (~100 ns apiece here) would cost a
// tenth of the round, so one call in 31 is timed and the total scaled
// (a prime period, so the sample does not lock onto the ORAMs'
// power-of-two call patterns). The SSD's data-moving calls — the real
// I/O — are all timed.
const sampleEvery = 31

// opCounter counts one kind of device call and estimates its total wall
// time from the timed sample.
type opCounter struct {
	ops, sampled atomic.Uint64
	ns           atomic.Int64
}

// start counts a call and says whether to time it.
func (c *opCounter) start(every uint64) (time.Time, bool) {
	if c.ops.Add(1)%every != 0 {
		return time.Time{}, false
	}
	return time.Now(), true
}

func (c *opCounter) stop(t0 time.Time) {
	c.ns.Add(int64(time.Since(t0)))
	c.sampled.Add(1)
}

// estNs scales the sampled time up to all calls.
func (c *opCounter) estNs() int64 {
	s := c.sampled.Load()
	if s == 0 {
		return 0
	}
	return int64(float64(c.ns.Load()) * float64(c.ops.Load()) / float64(s))
}

// devCounters accumulate one device's traffic as its decorator sees it
// (one set per device: shards run concurrently and would otherwise
// contend on the counters). Bytes are counted on every round of a
// traced deployment (they cross-check the controller's own SSDStats);
// calls and wall time only while the tracer is on.
type devCounters struct {
	read, write, charge     opCounter
	bytesRead, bytesWritten atomic.Uint64
}

// devTotals is one device class's traffic summed over its devices.
type devTotals struct {
	readOps, writeOps, chargeOps uint64
	readNs, writeNs, chargeNs    int64
	bytesRead, bytesWritten      uint64
}

func (t devTotals) ns() int64 { return t.readNs + t.writeNs + t.chargeNs }

// devTotals sums the counters of the class's devices (devSSD/devDRAM).
func (t *tracer) devTotals(class int) devTotals {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum devTotals
	for _, d := range t.devs {
		if d.class != class {
			continue
		}
		c := &d.c
		sum.readOps += c.read.ops.Load()
		sum.writeOps += c.write.ops.Load()
		sum.chargeOps += c.charge.ops.Load()
		sum.readNs += c.read.estNs()
		sum.writeNs += c.write.estNs()
		sum.chargeNs += c.charge.estNs()
		sum.bytesRead += c.bytesRead.Load()
		sum.bytesWritten += c.bytesWritten.Load()
	}
	return sum
}

// tracedDevice times the calls a controller makes on one device.
// PeekAt/PokeAt move the real bytes (the ORAMs account traffic
// separately through Charge/ChargeN), so reads are ReadAt+PeekAt and
// writes WriteAt+PokeAt.
type tracedDevice struct {
	device.Device
	tr    *tracer
	class int
	c     devCounters
	// dataEvery / chargeEvery are the sampling periods of data-moving and
	// accounting calls.
	dataEvery, chargeEvery uint64
}

// wrapDevice is the fedora.Config.WrapDevice hook. Names are "ssd" /
// "dram", "shard<i>/"-prefixed when sharded.
func (t *tracer) wrapDevice(name string, d device.Device) device.Device {
	td := &tracedDevice{Device: d, tr: t, class: devDRAM, dataEvery: sampleEvery, chargeEvery: sampleEvery}
	if strings.HasSuffix(name, "ssd") {
		td.class, td.dataEvery = devSSD, 1
	}
	t.mu.Lock()
	t.devs = append(t.devs, td)
	t.mu.Unlock()
	return td
}

func (d *tracedDevice) pageRound(n int) uint64 {
	if ps := d.PageSize(); ps > 1 {
		n = (n + ps - 1) / ps * ps
	}
	return uint64(n)
}

func (d *tracedDevice) ReadAt(addr uint64, p []byte) (time.Duration, error) {
	d.c.bytesRead.Add(d.pageRound(len(p)))
	if !d.tr.on.Load() {
		return d.Device.ReadAt(addr, p)
	}
	t0, timed := d.c.read.start(d.dataEvery)
	dur, err := d.Device.ReadAt(addr, p)
	if timed {
		d.c.read.stop(t0)
	}
	return dur, err
}

func (d *tracedDevice) WriteAt(addr uint64, p []byte) (time.Duration, error) {
	d.c.bytesWritten.Add(d.pageRound(len(p)))
	if !d.tr.on.Load() {
		return d.Device.WriteAt(addr, p)
	}
	t0, timed := d.c.write.start(d.dataEvery)
	dur, err := d.Device.WriteAt(addr, p)
	if timed {
		d.c.write.stop(t0)
	}
	return dur, err
}

func (d *tracedDevice) PeekAt(addr uint64, p []byte) error {
	if !d.tr.on.Load() {
		return d.Device.PeekAt(addr, p)
	}
	t0, timed := d.c.read.start(d.dataEvery)
	err := d.Device.PeekAt(addr, p)
	if timed {
		d.c.read.stop(t0)
	}
	return err
}

func (d *tracedDevice) PokeAt(addr uint64, p []byte) error {
	if !d.tr.on.Load() {
		return d.Device.PokeAt(addr, p)
	}
	t0, timed := d.c.write.start(d.dataEvery)
	err := d.Device.PokeAt(addr, p)
	if timed {
		d.c.write.stop(t0)
	}
	return err
}

func (d *tracedDevice) count(op device.Op, n, count int) {
	b := d.pageRound(n) * uint64(count)
	if op == device.OpRead {
		d.c.bytesRead.Add(b)
	} else {
		d.c.bytesWritten.Add(b)
	}
}

func (d *tracedDevice) Charge(op device.Op, addr uint64, n int) time.Duration {
	d.count(op, n, 1)
	if !d.tr.on.Load() {
		return d.Device.Charge(op, addr, n)
	}
	t0, timed := d.c.charge.start(d.chargeEvery)
	dur := d.Device.Charge(op, addr, n)
	if timed {
		d.c.charge.stop(t0)
	}
	return dur
}

func (d *tracedDevice) ChargeN(op device.Op, n, count int) time.Duration {
	if count > 0 {
		d.count(op, n, count)
	}
	if !d.tr.on.Load() {
		return d.Device.ChargeN(op, n, count)
	}
	t0, timed := d.c.charge.start(d.chargeEvery)
	dur := d.Device.ChargeN(op, n, count)
	if timed {
		d.c.charge.stop(t0)
	}
	return dur
}
