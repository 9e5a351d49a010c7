package main

import (
	"fmt"
	"os"
	"strings"
	"time"
)

// layerMetrics turns a traced segment's spans and counters into the
// per-layer metrics: per traced round unless the unit says otherwise.
func (w *window) layerMetrics(res *segmentResult) error {
	n := float64(w.tracedRounds)
	if n == 0 {
		return fmt.Errorf("%s: traced segment measured no traced round (run at least %d rounds)", w.cfg.Workload, 2*w.cfg.TraceBlock)
	}
	v := res.Values
	for _, m := range tracedMetrics() {
		if _, ok := v[m.Name]; !ok {
			v[m.Name] = 0
		}
	}
	spans := w.tr.snapshot()
	ix := indexSpans(spans)
	ms := func(ns int64) float64 { return float64(ns) / 1e6 / n }
	count := func(prefix string) float64 {
		_, c := ix.sum(prefix, span.dur)
		return float64(c) / n
	}

	// fl: the five seam-A parts plus self sum to the round wall.
	if w.d.trainer != nil {
		roundNs := ix.dur("round")
		begin, upload := ix.dur("fl.begin"), ix.dur("fl.upload")
		finish, stage := ix.dur("fl.finish"), ix.dur("fl.stage")
		train := trainPhase(spans)
		v["fl.begin_ms"], v["fl.train_phase_ms"] = ms(begin), ms(train)
		v["fl.serve_busy_ms"], v["fl.serve_calls"] = ms(ix.busy("fl.serve")), count("fl.serve")
		v["fl.upload_ms"], v["fl.upload_calls"] = ms(upload), count("fl.upload")
		v["fl.finish_ms"], v["fl.stage_ms"] = ms(finish), ms(stage)
		v["fl.self_ms"] = ms(roundNs - begin - train - upload - finish - stage)
	}

	// client: what the SDK adds around the transport, and what the
	// transport adds around the handler.
	if w.d.sdk != nil {
		v["client.sdk_self_ms"] = ms(ix.self("fl."))
		v["client.transport_ms"] = ms(ix.self("client.rt."))
		v["client.requests"] = float64(w.sdkTraced.Requests) / n
		v["client.bytes_sent"] = float64(w.sdkTraced.BytesSent) / n
		v["client.bytes_recv"] = float64(w.sdkTraced.BytesReceived) / n
		v["client.retries"] = float64(w.sdkTraced.Retries) / n

		// api: the front server's handlers around its controller.
		v["api.handler_ms"] = ms(ix.dur("api.handler."))
		v["api.self_ms"] = ms(ix.self("api.handler."))
		v["api.entries_self_ms"] = ms(ix.self("api.handler.entries"))
		v["api.upload_self_ms"] = ms(ix.self("api.handler.gradients") + ix.self("api.handler.unmask"))
		v["api.controller_ms"] = ms(ix.dur("api.handler.") - ix.self("api.handler."))
	}

	// cluster: the coordinator's own time is its controller calls minus
	// the interval union of the member calls outstanding under them.
	if w.d.mgr != nil {
		cdur, cself := ix.dur("cluster."), ix.self("cluster.")
		v["cluster.self_ms"], v["cluster.member_wait_ms"] = ms(cself), ms(cdur-cself)
		v["cluster.member_busy_ms"] = ms(ix.dur("member.handler."))
		v["cluster.fanout_requests"] = float64(w.d.memberRT.requests.Load()) / n
		v["cluster.fanout_bytes"] = float64(w.d.memberRT.bytes.Load()) / n
		// The coordinator checkpoints when its round counter (warm-up
		// included) is a multiple of the cadence.
		ckpt, plain := splitWalls(res.RoundWallMs, func(i int) bool {
			return (warmupRounds(w.cfg.Workload)+i+1)%w.cfg.Geom.CheckpointEvery == 0
		})
		v["cluster.ckpt_stall_ms"] = median(ckpt) - median(plain)
		v["persist.wal_bytes"] = median(w.walGrowth)
		if epochs, err := w.d.mgr.Epochs(); err == nil && len(epochs) > 0 {
			if st, err := os.Stat(w.d.mgr.CheckpointPath(epochs[len(epochs)-1])); err == nil {
				v["persist.ckpt_bytes"] = float64(st.Size())
			}
		}
	}

	// fedora/shard: calls into the controllers, and what is left of them
	// once the time their devices took is removed.
	var fedoraNs int64
	for _, op := range []string{"begin", "serve", "submit", "finish", "stage"} {
		d := ix.dur("fedora." + op)
		v["fedora."+op+"_ms"] = ms(d)
		fedoraNs += d
	}
	ssd, dram := w.tr.devTotals(devSSD), w.tr.devTotals(devDRAM)
	v["fedora.self_ms"] = ms(fedoraNs - ssd.ns() - dram.ns())

	// device/storage.
	v["device.ssd_read_ops"] = float64(ssd.readOps) / n
	v["device.ssd_read_ms"] = ms(ssd.readNs)
	v["device.ssd_write_ops"] = float64(ssd.writeOps) / n
	v["device.ssd_write_ms"] = ms(ssd.writeNs)
	v["device.dram_ops"] = float64(dram.readOps+dram.writeOps+dram.chargeOps) / n
	v["device.dram_ms"] = ms(dram.ns())
	v["storage.fsyncs"] = float64(w.fsyncs()-w.fsyncs0) / float64(res.Rounds)
	for _, c := range w.d.ctrls {
		for _, rep := range c.StorageReports() {
			v["storage.read_p50_us"] = float64(rep.Read.P50) / float64(time.Microsecond)
			v["storage.write_p50_us"] = float64(rep.Write.P50) / float64(time.Microsecond)
		}
	}

	// persist: the controller state's size and the cost of taking it.
	t0 := time.Now()
	blob, err := w.d.snapshot()
	if err != nil {
		return fmt.Errorf("%s: snapshot: %w", w.cfg.Workload, err)
	}
	v["persist.snapshot_ms"] = float64(time.Since(t0).Nanoseconds()) / 1e6
	v["persist.snapshot_bytes"] = float64(len(blob))

	if err := w.replayKernels(res); err != nil {
		return err
	}

	traced, untraced := splitWalls(res.RoundWallMs, func(i int) bool { return res.TracedRound[i] })
	v["trace.overhead_share"] = median(traced)/median(untraced) - 1
	v["trace.spans"] = float64(len(spans)) / n
	return nil
}

// splitWalls sorts the per-round walls into those whose index satisfies
// is and the rest.
func splitWalls(walls []float64, is func(i int) bool) (yes, no []float64) {
	for i, wall := range walls {
		if is(i) {
			yes = append(yes, wall)
		} else {
			no = append(no, wall)
		}
	}
	return yes, no
}

// trainPhase sums, over rounds, the time from BeginRound's return to the
// round's first upload call (or its Finish when nothing was uploaded).
func trainPhase(spans []span) int64 {
	type marks struct{ beginEnd, firstUp int64 }
	byRound := map[int]*marks{}
	for _, s := range spans {
		m := byRound[s.Round]
		if m == nil {
			m = &marks{}
			byRound[s.Round] = m
		}
		switch {
		case s.Name == "fl.begin":
			m.beginEnd = s.End
		case strings.HasPrefix(s.Name, "fl.upload") || s.Name == "fl.finish":
			if m.firstUp == 0 || s.Start < m.firstUp {
				m.firstUp = s.Start
			}
		}
	}
	var total int64
	for _, m := range byRound {
		if m.beginEnd > 0 && m.firstUp > m.beginEnd {
			total += m.firstUp - m.beginEnd
		}
	}
	return total
}
