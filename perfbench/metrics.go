package main

import (
	"fmt"
	"sort"

	"repro/internal/stats"
)

// timedItems are the layer boundaries the traced run times. Each reports
// <item>_us (median self time per call), <item>.calls and <item>.busy_ms
// (summed self time). client.call, service.handler and
// cluster.peer_handler are live spans of the traced window; the others
// come from the serial replay of the workload's distinct inputs.
var timedItems = []string{
	"client.call", "client.decode",
	"service.handler", "service.key", "service.marshal", "service.envelope",
	"trace.decode",
	"schedule.compile", "switchprog.lower", "sim.predict",
	"optics.verify", "fault.recompile",
	"store.get", "store.put",
	"delta.recompile", "core.choose",
	"cluster.peer_handler",
}

// hitPath are the replayed items a cache hit runs; a cold compile runs
// every replayed item but client.decode.
var hitPath = []string{"trace.decode", "service.key", "service.envelope"}

// perLayerUnits lists every per-layer metric with its unit, in report
// order. BENCHMARK.json declares exactly these.
func perLayerUnits() [][2]string {
	var out [][2]string
	for _, it := range timedItems {
		out = append(out, [2]string{it + "_us", "us"}, [2]string{it + ".calls", "count"}, [2]string{it + ".busy_ms", "ms"})
	}
	out = append(out,
		[2]string{"client.self_us", "us"},
		[2]string{"trace.body_kb", "KiB"},
		[2]string{"service.hits", "count"},
		[2]string{"service.misses", "count"},
		[2]string{"service.store_hits", "count"},
		[2]string{"service.peer_hits", "count"},
		[2]string{"service.coalesced", "count"},
		[2]string{"service.rejected", "count"},
		[2]string{"pool.queue_wait_p50_us", "us"},
		[2]string{"pool.queue_wait_p99_us", "us"},
		[2]string{"schedule.degree_over_lb", "ratio"},
		[2]string{"store.puts", "count"},
		[2]string{"store.hits", "count"},
		[2]string{"delta.patched_ratio", "ratio"},
		[2]string{"core.keep", "count"},
		[2]string{"core.patch", "count"},
		[2]string{"core.recompile", "count"},
		[2]string{"session.pipelined_compiles", "count"},
		[2]string{"cluster.forwards", "count"},
		[2]string{"cluster.gossip_pulled", "count"},
		[2]string{"cluster.compiles_per_key", "ratio"},
		[2]string{"runtime.gc_cpu_frac", "ratio"},
		[2]string{"runtime.gc_cycles", "count"},
		[2]string{"loadgen.late_p99_ms", "ms"},
		[2]string{"loadgen.sent", "count"},
		[2]string{"tracing.untraced_p50_ms", "ms"},
		[2]string{"tracing.traced_p50_ms", "ms"},
		[2]string{"tracing.overhead_ratio", "ratio"},
		[2]string{"tracing.coverage", "ratio"},
	)
	return out
}

// perLayer computes the per-layer metrics from the traced window tw, its
// untraced twin plain, every span (live and replayed), and the replay's
// ratios.
func perLayer(workload string, plain, tw *window, all []span, rs replayStats, put func(string, float64, string)) {
	units := map[string]string{}
	for _, u := range perLayerUnits() {
		units[u[0]] = u[1]
	}
	set := func(name string, v float64) { put(name, v, units[name]) }

	sum := summarize(all)
	for _, it := range timedItems {
		st := sum[it]
		if st == nil {
			st = &layerStat{}
		}
		v := median(st.self)
		if it == "client.call" {
			v = median(st.incl)
		}
		set(it+"_us", v)
		set(it+".calls", float64(st.calls))
		set(it+".busy_ms", ms(st.busy))
	}
	if st := sum["client.call"]; st != nil {
		set("client.self_us", median(st.self))
	} else {
		set("client.self_us", 0)
	}
	set("trace.body_kb", mean(rs.bodyKB))
	set("schedule.degree_over_lb", mean(rs.degreeOverLB))

	d := endpointDelta(tw.before, tw.after, servingEndpoints...)
	set("service.hits", float64(d.Hits))
	set("service.misses", float64(d.Misses))
	set("service.store_hits", float64(d.StoreHits))
	set("service.peer_hits", float64(d.PeerHits))
	set("service.coalesced", float64(d.Coalesced))
	set("service.rejected", float64(d.Rejected))

	var wait stats.HistSnapshot
	var puts, hits, patched, full, keep, patch, recompile, pipelined uint64
	for i := range tw.after.metrics {
		a, b := tw.after.metrics[i], tw.before.metrics[i]
		wait = mergeHist(wait, histDelta(b.Queue.WaitUs, a.Queue.WaitUs))
		puts += a.Store.Puts - b.Store.Puts
		hits += a.Store.Hits - b.Store.Hits
		patched += a.Delta.Patched - b.Delta.Patched
		full += a.Delta.Full - b.Delta.Full
		keep += a.Session.Keep - b.Session.Keep
		patch += a.Session.Patch - b.Session.Patch
		recompile += a.Session.Recompile - b.Session.Recompile
		pipelined += a.Session.PipelinedCompiles - b.Session.PipelinedCompiles
	}
	set("pool.queue_wait_p50_us", float64(wait.Quantile(0.5)))
	set("pool.queue_wait_p99_us", float64(wait.Quantile(0.99)))
	set("store.puts", float64(puts))
	set("store.hits", float64(hits))
	set("delta.patched_ratio", ratio(float64(patched), float64(patched+full)))
	set("core.keep", float64(keep))
	set("core.patch", float64(patch))
	set("core.recompile", float64(recompile))
	set("session.pipelined_compiles", float64(pipelined))

	var forwards, pulled uint64
	for i := range tw.after.cluster {
		a, b := tw.after.cluster[i], tw.before.cluster[i]
		forwards += a.Forward.Hits - b.Forward.Hits
		pulled += a.Gossip.Pulled - b.Gossip.Pulled
	}
	set("cluster.forwards", float64(forwards))
	set("cluster.gossip_pulled", float64(pulled))
	compiles := endpointDelta(tw.before, tw.after, "compile", "recompile").Misses
	keys := map[string]bool{}
	for i := range tw.outs {
		if o := &tw.outs[i]; o.err == nil && !o.session {
			keys[o.key] = true
		}
	}
	set("cluster.compiles_per_key", ratio(float64(compiles), float64(len(keys))))

	set("runtime.gc_cpu_frac", ratio(tw.u1.gcCPU-tw.u0.gcCPU, tw.u1.totCPU-tw.u0.totCPU))
	set("runtime.gc_cycles", float64(tw.u1.gcCount-tw.u0.gcCount))
	_, _, late := tw.latencies()
	p, _ := percentile(late, 0.99)
	set("loadgen.late_p99_ms", p)
	set("loadgen.sent", float64(tw.attempted()))

	plainLat, _, _ := plain.latencies()
	tracedLat, _, _ := tw.latencies()
	set("tracing.untraced_p50_ms", median(plainLat))
	set("tracing.traced_p50_ms", median(tracedLat))
	set("tracing.overhead_ratio", ratio(median(tracedLat), median(plainLat)))
	set("tracing.coverage", coverage(workload, tw, all))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mergeHist(a, b stats.HistSnapshot) stats.HistSnapshot {
	counts := map[int64]uint64{}
	for _, x := range [][]stats.HistBucket{a.Buckets, b.Buckets} {
		for _, bk := range x {
			counts[bk.Le] += bk.Count
		}
	}
	out := stats.HistSnapshot{Count: a.Count + b.Count, Sum: a.Sum + b.Sum, Max: max(a.Max, b.Max)}
	for le, c := range counts {
		out.Buckets = append(out.Buckets, stats.HistBucket{Le: le, Count: c})
	}
	sort.Slice(out.Buckets, func(i, j int) bool { return out.Buckets[i].Le < out.Buckets[j].Le })
	return out
}

// coverage is the share of the daemons' handler time that the replayed
// layers account for. Over the traced window's requests whose input was
// replayed, it divides the replayed daemon-side self time of that input
// (hit path only on serve-hit, where every request is a hit) by the
// requests' handler and peer-handler self time.
func coverage(workload string, tw *window, spans []span) float64 {
	self := selfTimes(spans)
	onPath := map[string]bool{}
	if workload == "serve-hit" {
		for _, it := range hitPath {
			onPath[it] = true
		}
	} else {
		for _, it := range timedItems {
			onPath[it] = true
		}
		for _, it := range []string{"client.call", "client.decode", "service.handler", "cluster.peer_handler"} {
			delete(onPath, it)
		}
	}
	replayed := map[int64]float64{} // input id -> replayed on-path µs
	handler := map[int64]float64{}  // live request id -> handler µs
	for _, s := range spans {
		switch {
		case s.Req >= replayReq && onPath[s.Name]:
			replayed[s.Req-replayReq] += us(self[s.ID])
		case s.Name == "service.handler" || s.Name == "cluster.peer_handler":
			handler[s.Req] += us(self[s.ID])
		}
	}
	var num, den float64
	for i := range tw.outs {
		o := &tw.outs[i]
		if r, ok := replayed[int64(o.input)]; ok && handler[int64(o.id)] > 0 {
			num += r
			den += handler[int64(o.id)]
		}
	}
	return ratio(num, den)
}

// printReport prints the human-readable summary that precedes the JSON
// line: every metric with its unit, the sample counts, and fail_ratio.
func printReport(workload string, seed int64, w *window, res *result) {
	lat, first, _ := w.latencies()
	fmt.Printf("%s seed %d: %d operations attempted, %d failed, fail_ratio %.6f\n",
		workload, seed, res.Attempted, res.Failed, ratio(float64(res.Failed), float64(res.Attempted)))
	fmt.Printf("  samples: latency %d, first chunk %d\n", len(lat), len(first))
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("  %-34s %14.4f %s\n", n, m.Value, m.Unit)
	}
}
