package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// spanKind names one layer boundary the traced run times. Publisher-side
// spans wrap the public steps of DMon.PollOnce, called one by one; the
// receive-side spans are derived from kecho.Event.Recv and the moment the
// benchmark's own handler (subscribed after d-mon's) runs.
type spanKind uint8

const (
	spPoll        spanKind = iota // parent of every other span of one report
	spCollect                     // DMon.CollectDue
	spFilter                      // DMon.FilterSamples (thresholds + E-code)
	spBuild                       // DMon.BuildReport
	spStoreUpdate                 // Store.Update of the node's own report
	spEncode                      // Report.Encode
	spPublish                     // kecho Channel.Publish
	spTransit                     // Publish return → Event.Recv, per receiver
	spDispatch                    // Event.Recv → post-d-mon handler, per receiver
	spQueryAll                    // adminproto Client.QueryAll round trip
	spQueryPart                   // adminproto Client.QueryPart round trip
	spTSDBQuery                   // query.ComputePart on one node's store
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"dmon.poll", "dmon.collect", "ecode.filter", "dmon.build", "dmon.store_update",
	"metrics.encode", "kecho.publish", "kecho.transit", "kecho.dispatch",
	"query.queryall", "adminproto.querypart", "tsdb.query",
}

// span is one timed interval. Spans of one report share the id (origin,
// seq); every non-poll span of a report has that report's dmon.poll span as
// parent. Query spans use origin = -1 and seq = the query's ordinal.
// Times are nanoseconds on the run's monotonic base.
type span struct {
	kind       spanKind
	origin     int16
	receiver   int16 // -1 on the publisher side
	seq        uint64
	start, end int64
}

func (s span) dur() int64 { return s.end - s.start }

// interval is a half-open [start, end) range in nanoseconds.
type interval struct{ start, end int64 }

// selfTime is the parent's duration minus the part of the parent interval
// covered by the union of its children. Children may overlap one another and
// may extend beyond the parent (a receive-side child runs after the
// publisher's poll returned); only the covered part inside the parent
// counts.
func selfTime(parent interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var covered int64
	var cur interval
	for i, c := range clipped {
		switch {
		case i == 0:
			cur = c
		case c.start <= cur.end:
			if c.end > cur.end {
				cur.end = c.end
			}
		default:
			covered += cur.end - cur.start
			cur = c
		}
	}
	if len(clipped) > 0 {
		covered += cur.end - cur.start
	}
	return parent.end - parent.start - covered
}

// spanKey identifies one report: the spans of a report share it.
type spanKey struct {
	origin int16
	seq    uint64
}

// spanStats are the per-kind aggregates of a traced phase: durations for
// the percentiles, and their sum for the busy share.
type spanStats struct {
	durs [numSpanKinds][]float64 // ns
	busy [numSpanKinds]int64     // ns
}

// analyze computes per-kind durations and every span's self time. Children
// are matched to their parent poll span by report id; a span without a
// parent is its own root.
func analyze(spans []span) (*spanStats, []int64) {
	children := make(map[spanKey][]interval)
	for _, s := range spans {
		if s.kind != spPoll && s.origin >= 0 {
			k := spanKey{s.origin, s.seq}
			children[k] = append(children[k], interval{s.start, s.end})
		}
	}
	st := &spanStats{}
	selfs := make([]int64, len(spans))
	for i, s := range spans {
		self := s.dur()
		if s.kind == spPoll {
			self = selfTime(interval{s.start, s.end}, children[spanKey{s.origin, s.seq}])
		}
		selfs[i] = self
		st.durs[s.kind] = append(st.durs[s.kind], float64(s.dur()))
		st.busy[s.kind] += s.dur()
	}
	return st, selfs
}

// dumpSpans writes every span as one tab-separated line, with its parent
// and self time, to path (created with its directory).
func dumpSpans(path string, names []string, spans []span, selfs []int64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(w, "span\tid\treceiver\tstart_ns\tend_ns\tparent\tself_ns")
	for i, s := range spans {
		id, parent, recv := fmt.Sprintf("q%d", s.seq), "-", "-"
		if s.origin >= 0 {
			id = fmt.Sprintf("%s:%d", names[s.origin], s.seq)
			if s.kind != spPoll {
				parent = spanNames[spPoll]
			}
		}
		if s.receiver >= 0 {
			recv = names[s.receiver]
		}
		fmt.Fprintf(w, "%s\t%s\t%s\t%d\t%d\t%s\t%d\n",
			spanNames[s.kind], id, recv, s.start, s.end, parent, selfs[i])
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
