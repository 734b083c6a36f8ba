package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"dproc/internal/adminproto"
	"dproc/internal/dmon"
	"dproc/internal/query"
	"dproc/internal/tsdb"
)

// queryWindow is the history window every cluster query aggregates.
const queryWindow = 5 * time.Second

// queryMetric is the series the cluster queries aggregate.
const queryMetric = "loadavg"

// queryRec is one closed-loop queryall round trip, plus, when traced, one
// QueryPart round trip and one in-process ComputePart on a rotating node.
type queryRec struct {
	q          tsdb.Query
	out        string
	err        error
	start, end int64
	traced     bool
	partStart  int64
	partEnd    int64
	partErr    error
	tsdbStart  int64
	tsdbEnd    int64
	tsdbErr    error
}

// queryLoop is the closed-loop admin client: one queryall to the
// coordinator (node 0) at a time until stopAt, pausing the workload's
// queryThink after each reply. The window is the 5 s of history ending at
// the ingest watermark, named absolutely: a relative "last 5s" is anchored
// at the coordinator's arrival instant, where a report being ingested can
// land on either side, and the reply renders the anchor only to the
// millisecond — no exact reference would exist. Once ingest has stopped,
// the window ends at the probe mark instead. tracedFrom marks queries
// started at or after it as traced.
func (b *bench) queryLoop(startAt, stopAt, tracedFrom int64) []queryRec {
	cli := adminproto.NewClient(b.f.admins[0].Addr())
	base, err := tsdb.ParseQuery("p99 " + queryMetric)
	if err != nil {
		panic(err) // constant query text
	}
	if d := startAt - b.now(); d > 0 {
		time.Sleep(time.Duration(d))
	}
	var recs []queryRec
	for i := 0; ; i++ {
		t0 := b.now()
		if t0 >= stopAt {
			return recs
		}
		w := b.probeMark
		if w == 0 {
			w = b.watermark.Load()
		}
		q := base
		q.To = w + 1
		q.From = q.To - int64(queryWindow)
		rec := queryRec{q: q, start: t0, traced: t0 >= tracedFrom}
		rec.out, rec.err = cli.QueryAll(q.String())
		rec.end = b.now()
		if rec.traced {
			// One part round trip and one direct store scan per query, on a
			// rotating node: the per-layer split of the queryall cost.
			node := b.nodes[i%len(b.nodes)]
			pc := adminproto.NewClient(b.f.admins[i%len(b.nodes)].Addr())
			rec.partStart = b.now()
			_, rec.partErr = pc.QueryPart(q)
			rec.partEnd = b.now()
			rec.tsdbStart = b.now()
			_, rec.tsdbErr = query.ComputePart(node.DMon().Store().TSDB(), dmon.SeriesKey(node.Name(), queryMetric), q)
			rec.tsdbEnd = b.now()
		}
		recs = append(recs, rec)
		b.sleepUntil(b.now() + int64(b.w.queryThink))
	}
}

// reference answers q in-process: query.Run over direct ComputePart
// fetches on the same stores, with the same targets in the same order.
func (b *bench) reference(q tsdb.Query) (query.Result, error) {
	targets := make([]query.Target, len(b.nodes))
	for i, n := range b.nodes {
		targets[i] = query.Target{Node: n.Name(), Addr: b.f.admins[i].Addr()}
	}
	targets = query.SortTargets(targets)
	fetch := func(_ context.Context, t query.Target, q tsdb.Query) (query.Part, error) {
		n := b.nodes[b.idx[t.Node]]
		return query.ComputePart(n.DMon().Store().TSDB(), dmon.SeriesKey(t.Node, q.Metric), q)
	}
	return query.Run(context.Background(), targets, q, time.Now(), fetch, query.Options{Concurrency: 1})
}

// canonical drops the per-node fetch durations, the only part of a
// rendered result that legitimately differs between two equal answers.
func canonical(out string) string {
	lines := strings.Split(strings.TrimSpace(out), "\n")
	for i, l := range lines {
		if j := strings.Index(l, " in="); j >= 0 && strings.HasPrefix(l, "node ") {
			lines[i] = l[:j]
		}
	}
	return strings.Join(lines, "\n")
}

// checkQuery reports whether a queryall reply is a complete (non-partial)
// result equal to the in-process reference.
func (b *bench) checkQuery(r queryRec) error {
	if r.err != nil {
		return r.err
	}
	ref, err := b.reference(r.q)
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	if ref.Partial || !ref.HasValue {
		return fmt.Errorf("reference for %s is partial or empty", r.q)
	}
	if got, want := canonical(r.out), canonical(ref.Render()); got != want {
		return fmt.Errorf("queryall %q:\n%s\nwant\n%s", r.q, got, want)
	}
	return nil
}

// slowestPart parses the per-node fetch durations out of a rendered
// queryall result and returns the largest, and how many nodes failed.
func slowestPart(out string) (time.Duration, int) {
	var slowest time.Duration
	failed := 0
	for _, l := range strings.Split(out, "\n") {
		if !strings.HasPrefix(l, "node ") {
			continue
		}
		j := strings.Index(l, " in=")
		if j < 0 {
			failed++
			continue
		}
		if d, err := time.ParseDuration(l[j+len(" in="):]); err == nil && d > slowest {
			slowest = d
		}
	}
	return slowest, failed
}
