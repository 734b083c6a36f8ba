package main

import (
	"fmt"
	"math"

	"dproc/internal/metrics"
)

// verified holds, per (receiver, origin, seq), when the benchmark handler
// saw the report (0 = never, -1 = more than once) and kecho's receive
// stamp.
type verified struct {
	at   [][][]int64
	recv [][][]int64
}

// verify checks every delivery against what was published — exactly once
// per (origin, seq, receiver), payload bytes equal — and every receiver's
// latest value per (origin, metric) against the origin's last published
// value. Any violation is a failed check. Missing deliveries are not: they
// count as infinitely late in the freshness figures.
func (b *bench) verify(out *outcome) *verified {
	n := len(b.nodes)
	v := &verified{at: make([][][]int64, n), recv: make([][][]int64, n)}
	for r := 0; r < n; r++ {
		v.at[r] = make([][]int64, n)
		v.recv[r] = make([][]int64, n)
		for o := 0; o < n; o++ {
			v.at[r][o] = make([]int64, len(b.pub[o]))
			v.recv[r][o] = make([]int64, len(b.pub[o]))
		}
	}
	var dups, corrupt, strays int
	for r := range b.logs {
		b.logs[r].each(func(d *delivery) {
			o := int(d.origin)
			if o < 0 || o == r || d.seq == 0 || int(d.seq) > len(b.pub[o]) {
				strays++
				return
			}
			i := d.seq - 1
			if d.hash != b.pub[o][i].hash {
				corrupt++
				return
			}
			if v.at[r][o][i] != 0 {
				dups++
				v.at[r][o][i] = -1
				return
			}
			v.at[r][o][i], v.recv[r][o][i] = d.at, d.recv
		})
	}
	if dups > 0 {
		out.problem("%d duplicate deliveries", dups)
	}
	if corrupt > 0 {
		out.problem("%d deliveries whose payload differs from the published bytes", corrupt)
	}
	if strays > 0 {
		out.problem("%d deliveries of reports never published to that receiver", strays)
	}
	stale := 0
	var first string
	for r, node := range b.nodes {
		store := node.DMon().Store()
		for o := range b.nodes {
			if o == r {
				continue
			}
			for id := metrics.ID(0); id < metrics.NumIDs; id++ {
				if !b.hasVal[o][id] {
					continue
				}
				s, ok := store.Get(b.names[o], id)
				if !ok || s.Value != b.lastVal[o][id] {
					if stale == 0 {
						first = fmt.Sprintf("%s holds %s/%s = %g (present %v), last published %g",
							b.names[r], b.names[o], id, s.Value, ok, b.lastVal[o][id])
					}
					stale++
				}
			}
		}
	}
	if stale > 0 {
		out.problem("%d stale latest values after the final drain; first: %s", stale, first)
	}
	return v
}

// checkQueries checks every queryall answer against the in-process
// reference and every traced part fetch for errors.
func (b *bench) checkQueries(out *outcome, recs []queryRec) {
	bad := 0
	var first error
	for _, r := range recs {
		err := b.checkQuery(r)
		if err == nil && r.traced {
			if err = r.partErr; err == nil {
				err = r.tsdbErr
			}
		}
		if err != nil {
			if bad == 0 {
				first = err
			}
			bad++
		}
	}
	if bad > 0 {
		out.problem("%d of %d queries wrong or failed; first: %v", bad, len(recs), first)
	}
}

// freshness returns the latency (ns) of every (report, receiver) pair of
// the reports due in [from, to) — +Inf for a pair never delivered exactly
// once — and how many pairs were delivered and expected.
func (b *bench) freshness(v *verified, from, to int64) (lat []float64, delivered, expected int64) {
	for o, recs := range b.pub {
		for i, p := range recs {
			if p.due < from || p.due >= to {
				continue
			}
			for r := range b.nodes {
				if r == o {
					continue
				}
				expected++
				if at := v.at[r][o][i]; at > 0 {
					delivered++
					lat = append(lat, float64(at-p.due))
				} else {
					lat = append(lat, inf)
				}
			}
		}
	}
	return lat, delivered, expected
}

// deliveriesIn counts handler runs in [from, to), over every receiver.
func (b *bench) deliveriesIn(from, to int64) int64 {
	var n int64
	for r := range b.logs {
		b.logs[r].each(func(d *delivery) {
			if d.at >= from && d.at < to {
				n++
			}
		})
	}
	return n
}

// window is a stretch [from, to) of the run, in ns since its base.
type window struct{ from, to int64 }

// inWindows reports whether t falls in one of ws.
func inWindows(t int64, ws []window) bool {
	for _, w := range ws {
		if t >= w.from && t < w.to {
			return true
		}
	}
	return false
}

// totalNs is the summed length of ws.
func totalNs(ws []window) int64 {
	var n int64
	for _, w := range ws {
		n += w.to - w.from
	}
	return n
}

// queryFigures summarizes the queries started in ws: round-trip times in
// ns, and how many were attempted and completed.
func queryFigures(recs []queryRec, ws []window) (rts []float64, attempted, done int64) {
	for _, r := range recs {
		if !inWindows(r.start, ws) {
			continue
		}
		attempted++
		if r.err == nil {
			rts = append(rts, float64(r.end-r.start))
			done++
		}
	}
	return rts, attempted, done
}

func seconds(ns int64) float64 { return float64(ns) / 1e9 }

// capacity returns the deliveries per second over the capacity slices, and
// the deliveries counted.
func (b *bench) capacity(capWins []window) (float64, int64) {
	var n int64
	for _, w := range capWins {
		n += b.deliveriesIn(w.from, w.to)
	}
	return ratio(float64(n), seconds(totalNs(capWins))), n
}

// endToEnd fills the untraced run's metrics.
func (b *bench) endToEnd(out *outcome, v *verified, s []snap, capWins []window, heap float64, setups []float64, qrecs []queryRec, qWins []window) {
	a0, a1 := s[0], s[1]
	lat, delivered, expected := b.freshness(v, a0.t, a1.t)
	dlv := float64(b.deliveriesIn(a0.t, a1.t))
	rts, queries, done := queryFigures(qrecs, qWins)
	capRPS, capDlv := b.capacity(capWins)
	out.attempted = expected + queries
	out.failed = expected - delivered + queries - done
	out.notes = append(out.notes,
		fmt.Sprintf("fresh samples %d (pairs delivered %d of %d)", len(lat), delivered, expected),
		fmt.Sprintf("paced deliveries %.0f, queries %d", dlv, queries))

	var late []float64
	for _, recs := range b.pub {
		for _, p := range recs {
			if p.due >= a0.t && p.due < a1.t {
				late = append(late, float64(p.start-p.due))
			}
		}
	}
	out.notes = append(out.notes,
		// The tails, the query timings and capacity are printed but not
		// bounded (see README): traced runs report them as bench.* metrics.
		fmt.Sprintf("fresh_p99_ms %.6g ms over %d pairs", finite(percentile(lat, 0.99))/1e6, len(lat)),
		fmt.Sprintf("capacity_rps %.6g deliveries/s over %d deliveries", capRPS, capDlv),
		fmt.Sprintf("query_p50_ms %.6g ms, query_p99_ms %.6g ms over %d queries, query_rps %.6g queries/s",
			finite(percentile(rts, 0.50))/1e6, finite(percentile(rts, 0.99))/1e6, len(rts), ratio(float64(done), seconds(totalNs(qWins)))),
		fmt.Sprintf("generator lateness p50 %.3f ms, p99 %.3f ms", percentile(late, 0.5)/1e6, percentile(late, 0.99)/1e6))
	out.add("setup_s", "s", median(setups))
	out.add("fresh_p50_ms", "ms", percentile(lat, 0.50)/1e6)
	out.add("delivered_frac", "ratio", ratio(float64(delivered), float64(expected)))
	out.add("cpu_us_per_delivery", "us", ratio(float64(a1.cpu-a0.cpu)/1e3, dlv))
	out.add("sent_bytes_per_delivery", "B", ratio(float64(a1.ch.BytesSent-a0.ch.BytesSent), dlv))
	out.add("heap_live_mb", "MiB", heap/(1<<20))
	out.add("query_ok_frac", "ratio", ratio(float64(done), float64(queries)))
}

// perLayer fills the traced run's metrics: span timings from the traced
// paced phase (and the traced queries), channel and store counters, and
// runtime and generator health from the untraced paced phase before it.
func (b *bench) perLayer(out *outcome, v *verified, s [3]snap, final snap, qrecs []queryRec, capWins []window, ts tsdbTotals, spansPath string) {
	a0, a1, t1 := s[0], s[1], s[2]
	dist, err := treeDistances(b.f.cluster, b.idx, b.w.branching)
	if err != nil {
		out.problem("deriving tree distances: %v", err)
		return
	}
	// Receive-side spans of every traced report, and transit by distance.
	spans := b.spans
	byDist := map[int][]float64{}
	var reports, reportBytes float64
	early := 0
	for o, recs := range b.pub {
		for i, p := range recs {
			if p.start < a1.t || p.start >= t1.t {
				continue
			}
			reports++
			reportBytes += float64(p.bytes)
			for r := range b.nodes {
				at, recv := v.at[r][o][i], v.recv[r][o][i]
				if r == o || at <= 0 {
					continue
				}
				if recv < p.pubEnd {
					early++ // received before Publish returned to the generator
					recv = p.pubEnd
				}
				id := span{origin: int16(o), receiver: int16(r), seq: uint64(i + 1)}
				tr, dp := id, id
				tr.kind, tr.start, tr.end = spTransit, p.pubEnd, recv
				dp.kind, dp.start, dp.end = spDispatch, recv, at
				spans = append(spans, tr, dp)
				byDist[dist[o][r]] = append(byDist[dist[o][r]], float64(recv-p.pubEnd))
			}
		}
	}
	// Query spans.
	var qStart, qEnd int64 = math.MaxInt64, 0
	var partMax, coord []float64
	nodesFailed := 0
	for i, r := range qrecs {
		if !r.traced {
			continue
		}
		qStart, qEnd = min(qStart, r.start), max(qEnd, r.tsdbEnd)
		q := span{origin: -1, receiver: -1, seq: uint64(i)}
		qa, qp, qt := q, q, q
		qa.kind, qa.start, qa.end = spQueryAll, r.start, r.end
		qp.kind, qp.start, qp.end = spQueryPart, r.partStart, r.partEnd
		qt.kind, qt.start, qt.end = spTSDBQuery, r.tsdbStart, r.tsdbEnd
		spans = append(spans, qa, qp, qt)
		slowest, failed := slowestPart(r.out)
		nodesFailed += failed
		partMax = append(partMax, float64(slowest))
		coord = append(coord, float64(r.end-r.start)-float64(slowest))
	}
	st, selfs := analyze(spans)
	if err := dumpSpans(spansPath, b.names, spans, selfs); err != nil {
		out.problem("writing spans: %v", err)
	}
	out.notes = append(out.notes, fmt.Sprintf("spans %d written to %s", len(spans), spansPath))
	if early > 0 {
		out.notes = append(out.notes, fmt.Sprintf("deliveries received before Publish returned %d (transit 0)", early))
	}
	for _, d := range sortedKeys(byDist) {
		out.notes = append(out.notes, fmt.Sprintf("transit distance %d: p50 %.1f us over %d pairs",
			d, percentile(byDist[d], 0.5)/1e3, len(byDist[d])))
	}

	wall := float64(t1.t - a1.t)
	qWall := float64(qEnd - qStart)
	us := func(k spanKind, q float64) float64 { return percentile(st.durs[k], q) / 1e3 }
	busy := func(k spanKind, wall float64) float64 { return ratio(float64(st.busy[k]), wall) }
	timed := func(name string, k spanKind) {
		out.add(name+"_us", "us", us(k, 0.5))
		out.add(name+"_busy", "ratio", busy(k, wall))
	}
	timed("dmon.poll", spPoll)
	timed("dmon.collect", spCollect)
	timed("dmon.build", spBuild)
	timed("dmon.store_update", spStoreUpdate)
	timed("ecode.filter", spFilter)
	var filterErrors uint64
	for _, n := range b.nodes {
		filterErrors += n.DMon().FilterErrors()
	}
	out.add("ecode.filter_errors", "count", float64(filterErrors))
	timed("metrics.encode", spEncode)
	out.add("metrics.report_bytes", "B", ratio(reportBytes, reports))
	timed("kecho.publish", spPublish)
	out.add("kecho.sent_per_report", "sends/report", ratio(float64(t1.ch.EventsSent-a1.ch.EventsSent), reports))
	out.add("kecho.batches_per_report", "batches/report", ratio(float64(t1.ch.BatchesSent-a1.ch.BatchesSent), reports))
	out.add("kecho.queue_drops", "count", float64(final.ch.QueueDrops))
	out.add("kecho.deadline_drops", "count", float64(final.ch.DeadlineDrops))
	timed("kecho.transit", spTransit)
	out.add("kecho.transit_p99_us", "us", us(spTransit, 0.99))
	timed("kecho.dispatch", spDispatch)
	out.add("kecho.dispatch_p99_us", "us", us(spDispatch, 0.99))
	out.add("kecho.inbox_drops", "count", float64(final.ch.Dropped))

	out.add("overlay.relayed_per_report", "sends/report", ratio(float64(t1.ch.Relayed-a1.ch.Relayed), reports))
	out.add("overlay.relay_dups", "count", float64(final.ch.RelayDups))
	out.add("overlay.dup_frac", "ratio", ratio(float64(final.ch.RelayDups), float64(final.ch.RelayDups+final.ch.EventsRecv)))
	keys := sortedKeys(byDist)
	var hops, pairs float64
	for _, d := range keys {
		hops += float64(d * len(byDist[d]))
		pairs += float64(len(byDist[d]))
	}
	dmax := 1
	if len(keys) > 0 {
		dmax = keys[len(keys)-1]
	}
	out.add("overlay.transit_d1_us", "us", percentile(byDist[1], 0.5)/1e3)
	out.add("overlay.transit_dmax_us", "us", percentile(byDist[dmax], 0.5)/1e3)
	out.add("overlay.hops_mean", "hops", ratio(hops, pairs))

	out.add("tsdb.samples", "count", float64(ts.samples))
	out.add("tsdb.bytes_per_sample", "B", ratio(float64(ts.bytes), float64(ts.samples)))
	out.add("tsdb.dropped", "count", float64(ts.dropped))
	out.add("tsdb.query_us", "us", us(spTSDBQuery, 0.5))
	out.add("tsdb.query_busy", "ratio", busy(spTSDBQuery, qWall))
	out.add("adminproto.querypart_ms", "ms", us(spQueryPart, 0.5)/1e3)
	out.add("adminproto.querypart_busy", "ratio", busy(spQueryPart, qWall))
	out.add("query.part_max_ms", "ms", percentile(partMax, 0.5)/1e6)
	out.add("query.coord_ms", "ms", percentile(coord, 0.5)/1e6)
	out.add("query.nodes_failed", "count", float64(nodesFailed))

	dlvA := float64(b.deliveriesIn(a0.t, a1.t))
	dlvT := float64(b.deliveriesIn(a1.t, t1.t))
	out.add("go.alloc_bytes_per_delivery", "B", ratio(float64(a1.totalAlloc-a0.totalAlloc), dlvA))
	out.add("go.gc_cycles", "count", float64(a1.numGC-a0.numGC))
	out.add("go.goroutines", "count", float64(a1.goroutines))
	var late []float64
	for _, recs := range b.pub {
		for _, p := range recs {
			if p.due >= a0.t && p.due < a1.t {
				late = append(late, float64(p.start-p.due))
			}
		}
	}
	out.add("bench.gen_late_p99_ms", "ms", percentile(late, 0.99)/1e6)
	lat, _, _ := b.freshness(v, a0.t, a1.t)
	out.add("bench.fresh_p99_ms", "ms", percentile(lat, 0.99)/1e6)
	qFrom, qTo := a0.t, a1.t // query-mix: the untraced queries beside ingest
	if !b.w.queries {
		qFrom, qTo = qStart, qEnd // the probe
	}
	rts, _, _ := queryFigures(qrecs, []window{{qFrom, qTo + 1}})
	out.add("bench.query_p50_ms", "ms", percentile(rts, 0.50)/1e6)
	out.add("bench.query_p99_ms", "ms", percentile(rts, 0.99)/1e6)
	capRPS, _ := b.capacity(capWins)
	out.add("bench.capacity_rps", "deliveries/s", capRPS)
	cpuA := ratio(float64(a1.cpu-a0.cpu), dlvA)
	cpuT := ratio(float64(t1.cpu-a1.cpu), dlvT)
	out.add("bench.trace_overhead_frac", "ratio", ratio(cpuT-cpuA, cpuA))

	_, delivered, expected := b.freshness(v, a0.t, t1.t)
	out.attempted = expected + int64(len(qrecs))
	out.failed = expected - delivered
	for _, r := range qrecs {
		if r.err != nil {
			out.failed++
		}
	}
}
