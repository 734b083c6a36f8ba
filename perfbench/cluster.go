package main

import (
	"fmt"
	"math/rand"
	"reflect"
	"time"

	"dproc/internal/adminproto"
	"dproc/internal/core"
	"dproc/internal/dmon"
	"dproc/internal/kecho"
	"dproc/internal/metrics"
	"dproc/internal/overlay"
	"dproc/internal/simres"
)

// workload is one traffic mix. Every node runs core.Defaults() except the
// fields set here. Why each exists is in README.md and BENCHMARK.json.
type workload struct {
	name      string
	nodes     int
	branching int                // relay-tree branching factor; 0 = flat mesh
	dispatch  kecho.DispatchMode // monitoring and control channels
	rate      float64            // paced reports per second, cluster-wide
	warmup    time.Duration      // paced traffic before measuring
	queries   bool               // closed-loop queryall client during the paced phase
	pollEvery time.Duration      // Polled dispatch: channel poll cadence
	// queryThink is the query client's pause between a reply and its next
	// query. On query-mix it keeps the one CPU from saturating: saturated,
	// ingest and queries split whatever CPU the shared host gives, and the
	// queries' leftover share amplified every drift of the host's speed.
	// The probe runs back to back: nothing else wants the CPU then, and
	// pauses would only add wake-ups from idle to each round trip.
	queryThink time.Duration
}

var workloads = []workload{
	{
		name: "mesh-fanout", nodes: 8, dispatch: kecho.EventDriven, rate: 1000,
		warmup: 2 * time.Second,
	},
	{
		name: "relay-tree", nodes: 16, branching: 2, dispatch: kecho.EventDriven, rate: 500,
		warmup: 2 * time.Second,
	},
	{
		name: "query-mix", nodes: 8, dispatch: kecho.Polled, rate: 1000,
		warmup: 5 * time.Second, queries: true, pollEvery: 10 * time.Millisecond,
		queryThink: 5 * time.Millisecond,
	},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// changedFilter forwards every metric whose value moved since it was last
// sent; unchanged ones (total memory, link figures) stay home.
const changedFilter = `
int n = 0;
for (int i = 0; i < ninput; i++) {
  if (input[i].value != input[i].last_value_sent) {
    output[n] = input[i];
    n++;
  }
}
`

// samplePeriod is below every schedule interval the generator uses, so each
// poll samples all metric IDs.
const samplePeriod = time.Microsecond

// hostParams are the seeded per-host resource levels: non-trivial, varied
// values so the filter branches and the query answers are not constant.
type hostParams struct {
	baseLoad  float64
	noise     float64
	disk      float64
	batteryWh float64
}

// deriveHosts derives from the workload seed the seed of the simulated
// hosts' noise streams and every host's resource levels.
func deriveHosts(seed int64, n int) (int64, []hostParams) {
	rng := rand.New(rand.NewSource(seed))
	noiseSeed := rng.Int63()
	out := make([]hostParams, n)
	for i := range out {
		out[i] = hostParams{
			baseLoad:  0.5 + 3*rng.Float64(),
			noise:     0.05 + 0.15*rng.Float64(),
			disk:      100 + 900*rng.Float64(),
			batteryWh: 20 + 40*rng.Float64(),
		}
	}
	return noiseSeed, out
}

// formed is one running cluster with its admin servers.
type formed struct {
	cluster *core.SimCluster
	admins  []*adminproto.Server
}

func (f *formed) close() {
	for _, a := range f.admins {
		_ = a.Close()
	}
	f.cluster.Close()
}

// formCluster builds the workload's cluster and returns it with its
// formation time: registry start, node joins, the mesh or tree converged
// (every member connected to exactly its DesiredPeers), and admin servers
// up. Host seeding, module registration and filter deployment follow and
// are not timed.
func formCluster(w workload, noiseSeed int64, hosts []hostParams) (*formed, time.Duration, error) {
	cfg := core.Defaults()
	cfg.Channel.Dispatch = w.dispatch
	if w.branching > 0 {
		cfg.RelayBranching = w.branching
		cfg.RelayRole = overlay.RoleRelay
	}
	start := time.Now()
	c, err := core.NewSimClusterWith(w.nodes, nil, noiseSeed, 0, func(i int, nc *core.Config) {
		base := cfg
		base.Name, base.RegistryAddr, base.Clock, base.Source = nc.Name, nc.RegistryAddr, nc.Clock, nc.Source
		*nc = base
	})
	if err != nil {
		return nil, 0, err
	}
	f := &formed{cluster: c}
	if err := waitConverged(c, 10*time.Second); err != nil {
		f.close()
		return nil, 0, err
	}
	for _, n := range c.Nodes {
		srv, err := adminproto.NewServerWith(n, "127.0.0.1:0", adminproto.ServerOptions{
			Timeout:          cfg.AdminTimeout,
			QueryTimeout:     cfg.QueryTimeout,
			QueryConcurrency: cfg.QueryFanout,
		})
		if err != nil {
			f.close()
			return nil, 0, err
		}
		f.admins = append(f.admins, srv)
	}
	setup := time.Since(start)

	for i, n := range c.Nodes {
		h, p := c.Hosts[i], hosts[i]
		reseed(h, p)
		d := n.DMon()
		d.Register(dmon.PowerModule(h))
		for r := metrics.Resource(0); r < metrics.NumResources; r++ {
			if err := d.SetPeriod(r, samplePeriod); err != nil {
				f.close()
				return nil, 0, err
			}
		}
		if err := d.DeployFilter(0, true, changedFilter); err != nil {
			f.close()
			return nil, 0, err
		}
	}
	return f, setup, nil
}

// reseed applies the seeded levels to one simulated host.
func reseed(h *simres.Host, p hostParams) {
	h.SetBaseLoad(p.baseLoad)
	h.SetNoise(p.noise)
	h.SetDiskActivity(p.disk)
	h.EnableBattery(p.batteryWh, 8, 3)
}

// waitConverged waits until every member's monitoring peers are exactly its
// DesiredPeers — on a relay tree, stale non-tree edges from the join order
// pruned — and the control mesh is complete.
func waitConverged(c *core.SimCluster, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for _, n := range c.Nodes {
		for {
			want, err := n.MonitoringChannel().DesiredPeers()
			if err == nil && reflect.DeepEqual(n.MonitoringChannel().Peers(), want) &&
				len(n.ControlChannel().Peers()) == len(c.Nodes)-1 {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%s: monitoring peers %v never matched the desired set", n.Name(), n.MonitoringChannel().Peers())
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return nil
}

// settle waits, untimed, until no channel of the cluster has dialed or
// re-established a peer for the quiet period, then re-checks convergence.
// Join-time dials can cross: two members dial each other at once, each
// replaces one connection with the other, and a pair can briefly lose both
// before the reconnect supervisor re-dials. Reports published meanwhile are
// lost, and a metric that never changes is only ever sent in a node's first
// report — so traffic waits until the mesh has stopped moving.
func settle(c *core.SimCluster, quiet, timeout time.Duration) error {
	moves := func() uint64 {
		var n uint64
		for _, node := range c.Nodes {
			for _, ch := range []*kecho.Channel{node.MonitoringChannel(), node.ControlChannel()} {
				st := ch.Stats()
				n += st.Redials + st.Reconnects + st.JoinSkips
			}
		}
		return n
	}
	deadline := time.Now().Add(timeout)
	last, since := moves(), time.Now()
	for time.Since(since) < quiet {
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster still re-dialing after %v", timeout)
		}
		time.Sleep(10 * time.Millisecond)
		if n := moves(); n != last {
			last, since = n, time.Now()
		}
	}
	return waitConverged(c, timeout)
}

// treeDistances returns the hop distance between every pair of members of
// the monitoring overlay, derived from the pure topology function over the
// registry roster: all ones on a flat mesh.
func treeDistances(c *core.SimCluster, idx map[string]int, branching int) ([][]int, error) {
	n := len(c.Nodes)
	dist := make([][]int, n)
	for i := range dist {
		dist[i] = make([]int, n)
		for j := range dist[i] {
			if i != j {
				dist[i][j] = 1
			}
		}
	}
	if branching == 0 {
		return dist, nil
	}
	roster, err := c.Nodes[0].Registry().Lookup(dmon.MonitoringChannel)
	if err != nil {
		return nil, err
	}
	topo := overlay.RelayTree{Branching: branching}
	adj := make([][]int, n)
	for _, m := range roster {
		for _, nb := range topo.Neighbors(m.ID, roster) {
			if nb.ID != m.ID {
				adj[idx[m.ID]] = append(adj[idx[m.ID]], idx[nb.ID])
			}
		}
	}
	for s := 0; s < n; s++ {
		for j := range dist[s] {
			dist[s][j] = -1
		}
		dist[s][s] = 0
		queue := []int{s}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range adj[u] {
				if dist[s][v] < 0 {
					dist[s][v] = dist[s][u] + 1
					queue = append(queue, v)
				}
			}
		}
	}
	return dist, nil
}
