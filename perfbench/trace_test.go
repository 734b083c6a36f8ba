package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestSelfTime(t *testing.T) {
	parent := interval{100, 200}
	for _, c := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{110, 120}, {150, 170}}, 70},
		{"contiguous cover", []interval{{100, 150}, {150, 200}}, 0},
		{"overlapping", []interval{{110, 140}, {130, 160}}, 50},
		{"nested", []interval{{110, 190}, {120, 130}}, 20},
		{"clipped at both edges", []interval{{50, 120}, {180, 300}}, 60},
		{"entirely outside", []interval{{0, 100}, {200, 250}}, 100},
		{"unsorted", []interval{{170, 180}, {105, 115}, {110, 125}}, 70},
		{"empty child", []interval{{150, 150}}, 100},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestAnalyzeAttributesChildrenByReport(t *testing.T) {
	spans := []span{
		{kind: spPoll, origin: 0, receiver: -1, seq: 1, start: 0, end: 100},
		{kind: spCollect, origin: 0, receiver: -1, seq: 1, start: 0, end: 30},
		{kind: spPublish, origin: 0, receiver: -1, seq: 1, start: 60, end: 100},
		// Another report's child must not count against seq 1's poll.
		{kind: spCollect, origin: 0, receiver: -1, seq: 2, start: 30, end: 60},
		// A receive-side child lies after the poll: it covers none of it.
		{kind: spTransit, origin: 0, receiver: 1, seq: 1, start: 100, end: 180},
	}
	st, selfs := analyze(spans)
	if selfs[0] != 30 {
		t.Errorf("poll self = %d, want 30", selfs[0])
	}
	if selfs[1] != 30 || selfs[3] != 30 || selfs[4] != 80 {
		t.Errorf("leaf self times %v, want their durations", selfs)
	}
	if st.busy[spCollect] != 60 {
		t.Errorf("collect busy = %d, want 60", st.busy[spCollect])
	}
	if len(st.durs[spPoll]) != 1 || st.durs[spPoll][0] != 100 {
		t.Errorf("poll durations %v", st.durs[spPoll])
	}
}

func TestDumpSpans(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "spans.tsv")
	spans := []span{
		{kind: spPoll, origin: 1, receiver: -1, seq: 7, start: 10, end: 20},
		{kind: spDispatch, origin: 1, receiver: 0, seq: 7, start: 30, end: 35},
		{kind: spQueryAll, origin: -1, receiver: -1, seq: 3, start: 40, end: 90},
	}
	if err := dumpSpans(path, []string{"node0", "node1"}, spans, []int64{10, 5, 50}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := "span\tid\treceiver\tstart_ns\tend_ns\tparent\tself_ns\n" +
		"dmon.poll\tnode1:7\t-\t10\t20\t-\t10\n" +
		"kecho.dispatch\tnode1:7\tnode0\t30\t35\tdmon.poll\t5\n" +
		"query.queryall\tq3\t-\t40\t90\t-\t50\n"
	if got := string(raw); got != want {
		t.Errorf("dump:\n%s\nwant:\n%s", got, want)
	}
}
