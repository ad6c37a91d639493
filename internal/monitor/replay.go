package monitor

import (
	"fmt"
	"time"

	"eventspace/internal/analysis"
	"eventspace/internal/collect"
)

// This file is the offline half of the monitors: the same joins the live
// load-balance and statistics monitors run, fed from archived trace
// tuples instead of event scopes. Replay is deterministic by
// construction — every computation below is a pure function of the
// tuples' own Seq/Start/End fields, and the joins are keyed by sequence
// number, so feeding the same tuples in any gather order produces the
// same verdicts as the live run (provided no round was evicted on
// either side). No clock is consulted anywhere.

// replayMaxPending is the join eviction bound used offline. Replay is
// not memory-pressured the way a live monitor is, so it is generous:
// evictions would break the determinism contract with the live run.
const replayMaxPending = 4096

// ReplayPort maps one archived contributor event collector onto the
// load-balance join: which node it feeds, as which contributor, and the
// node's fan-in.
type ReplayPort struct {
	Node        string // node name (the weighted-tree key)
	Contributor int    // contributor index on that node
	Fanin       int    // the node's contributor count
}

// LastArrivalReplay re-runs the load-balance monitor's last-arrival
// reduction over archived trace tuples. It mirrors the single-scope
// reduce wrapper exactly: per node, rounds join on the tuple sequence
// number and the last arrival is the contributor tuple with the largest
// Start stamp (ties broken toward the higher contributor index).
type LastArrivalReplay struct {
	ports    map[uint32]ReplayPort // contributor ECID -> port
	joins    map[string]*lbJoin    // node name -> join
	weighted *WeightedTree

	fed     uint64
	matched uint64
}

// NewLastArrivalReplay builds a replay driver from the contributor-ECID
// port map (see archive.ReplayLastArrival for the wiring from archived
// collector metadata).
func NewLastArrivalReplay(ports map[uint32]ReplayPort) (*LastArrivalReplay, error) {
	r := &LastArrivalReplay{
		ports:    make(map[uint32]ReplayPort, len(ports)),
		joins:    make(map[string]*lbJoin),
		weighted: NewWeightedTree(),
	}
	for id, p := range ports {
		if p.Fanin < 1 {
			return nil, fmt.Errorf("monitor: replay port %d: fanin %d < 1", id, p.Fanin)
		}
		if p.Contributor < 0 || p.Contributor >= p.Fanin {
			return nil, fmt.Errorf("monitor: replay port %d: contributor %d outside fanin %d", id, p.Contributor, p.Fanin)
		}
		r.ports[id] = p
		if _, ok := r.joins[p.Node]; !ok {
			r.joins[p.Node] = newLBJoin(p.Fanin, replayMaxPending)
		}
	}
	return r, nil
}

// Feed offers one archived tuple to the join. Tuples from collectors
// outside the port map (collective wrappers, stub collectors) are
// ignored, exactly as the live reduce ignores unknown ECIDs.
func (r *LastArrivalReplay) Feed(t collect.TraceTuple) {
	r.fed++
	p, ok := r.ports[t.ECID]
	if !ok {
		return
	}
	r.matched++
	if last, done := r.joins[p.Node].add(p.Contributor, t); done {
		r.weighted.Add(p.Node, last, 1)
	}
}

// Weighted returns the reconstructed weighted tree. Compare it (e.g.
// via viz.WeightedTree) against the live monitor's Weighted() output.
func (r *LastArrivalReplay) Weighted() *WeightedTree { return r.weighted }

// LoadBalanceResume is the state handoff for a front-end failover: the
// weighted tree reconstructed from the dead front-end's sealed archive,
// plus per-node join floors (the highest round each node completed) so
// the replacement monitor never double-counts a finished round.
type LoadBalanceResume struct {
	Weighted *WeightedTree
	Floors   map[string]uint32 // node name -> highest completed Seq
	// ReRead makes the replacement monitor's source readers start at the
	// beginning of the retained trace windows instead of after the
	// newest tuple. Checkpointed recovery sets it: tuples the dead
	// front end gathered but the checkpoint+suffix already covers are
	// blocked by the per-node floors (joins ignore Seq <= floor, and
	// identical re-fed contributor tuples are idempotent), so re-reading
	// closes the gather gap without double-counting a finished round.
	ReRead bool
}

// Resume snapshots the replay into a handoff a replacement load-balance
// monitor can be seeded from (NewLoadBalanceFrom). Call it after feeding
// the sealed archive completely; Lost() must be zero for the handoff to
// be faithful.
func (r *LastArrivalReplay) Resume() *LoadBalanceResume {
	res := &LoadBalanceResume{Weighted: NewWeightedTree(), Floors: make(map[string]uint32)}
	for _, node := range r.weighted.Nodes() {
		for c, n := range r.weighted.Counts(node) {
			res.Weighted.Add(node, c, n)
		}
	}
	for node, j := range r.joins {
		if j.maxDone > 0 {
			res.Floors[node] = j.maxDone
		}
	}
	return res
}

// Fed returns how many tuples were offered and how many belonged to a
// known contributor collector.
func (r *LastArrivalReplay) Fed() (fed, matched uint64) { return r.fed, r.matched }

// Lost sums rounds evicted from the replay joins — nonzero means the
// determinism contract with the live run is void for this replay.
func (r *LastArrivalReplay) Lost() uint64 {
	var n uint64
	for _, j := range r.joins {
		n += j.rounds.Lost()
	}
	return n
}

// ReplayStatsPort maps one archived event collector onto the statistics
// join: which node's round it belongs to and as what.
type ReplayStatsPort struct {
	NodeID      uint32 // the node's collective EC id (the stats-record key)
	Contributor int    // contributor index, or -1 for the collective tuple
	Fanin       int    // the node's contributor count
}

// statsReplayNode is one node's offline statistics state: the same
// joiner-plus-streams pipeline statsm runs per node, minus the
// intermediate buffers and gather scopes.
type statsReplayNode struct {
	joiner                            *analysis.Joiner
	down, up, total, arrWait, depWait *analysis.Stream
	rounds                            uint64
}

// StatsReplay re-runs statsm's wrapper-statistics computation over
// archived trace tuples: per-node round joins and the five latency
// streams (down, up, total, arrival wait, departure wait) in
// microseconds.
type StatsReplay struct {
	ports  map[uint32]ReplayStatsPort
	nodes  map[uint32]*statsReplayNode // keyed by NodeID
	window int                         // sliding-median window, kept for snapshots

	fed     uint64
	matched uint64
}

// NewStatsReplay builds a statistics replay driver from the ECID port
// map. window is the sliding median window (values < 1 use the
// analysis default).
func NewStatsReplay(ports map[uint32]ReplayStatsPort, window int) (*StatsReplay, error) {
	r := &StatsReplay{
		ports:  make(map[uint32]ReplayStatsPort, len(ports)),
		nodes:  make(map[uint32]*statsReplayNode),
		window: window,
	}
	for id, p := range ports {
		if p.Fanin < 1 {
			return nil, fmt.Errorf("monitor: stats replay port %d: fanin %d < 1", id, p.Fanin)
		}
		if p.Contributor >= p.Fanin {
			return nil, fmt.Errorf("monitor: stats replay port %d: contributor %d outside fanin %d", id, p.Contributor, p.Fanin)
		}
		r.ports[id] = p
		if _, ok := r.nodes[p.NodeID]; ok {
			continue
		}
		st := &statsReplayNode{
			down:    analysis.NewStream(window),
			up:      analysis.NewStream(window),
			total:   analysis.NewStream(window),
			arrWait: analysis.NewStream(window),
			depWait: analysis.NewStream(window),
		}
		joiner, err := analysis.NewJoiner(p.Fanin, replayMaxPending, func(m analysis.RoundMetrics) {
			st.rounds++
			for _, c := range m.Per {
				st.down.Add(float64(c.Down) / float64(time.Microsecond))
				st.up.Add(float64(c.Up) / float64(time.Microsecond))
				st.total.Add(float64(c.Total) / float64(time.Microsecond))
				st.arrWait.Add(float64(c.ArrivalWait) / float64(time.Microsecond))
				st.depWait.Add(float64(c.DepartureWait) / float64(time.Microsecond))
			}
		})
		if err != nil {
			return nil, err
		}
		st.joiner = joiner
		r.nodes[p.NodeID] = st
	}
	return r, nil
}

// Feed offers one archived tuple to the statistics join.
func (r *StatsReplay) Feed(t collect.TraceTuple) {
	r.fed++
	p, ok := r.ports[t.ECID]
	if !ok {
		return
	}
	r.matched++
	st := r.nodes[p.NodeID]
	if p.Contributor < 0 {
		st.joiner.AddCollective(t)
	} else {
		st.joiner.AddContributor(p.Contributor, t)
	}
}

// Tree materializes the reconstructed analysis tree: the five wrapper
// statistics per node, as statsm would have published them.
func (r *StatsReplay) Tree() *AnalysisTree {
	at := NewAnalysisTree()
	for id, st := range r.nodes {
		if st.rounds == 0 {
			continue
		}
		streams := [...]*analysis.Stream{st.down, st.up, st.total, st.arrWait, st.depWait}
		for i, kind := range wrapperKinds {
			at.Update(analysis.StatsRecordFrom(id, kind, streams[i].Snapshot()))
		}
	}
	return at
}

// RoundsAnalyzed sums completed rounds over all nodes.
func (r *StatsReplay) RoundsAnalyzed() uint64 {
	var n uint64
	for _, st := range r.nodes {
		n += st.rounds
	}
	return n
}

// Fed returns how many tuples were offered and how many belonged to a
// known collector.
func (r *StatsReplay) Fed() (fed, matched uint64) { return r.fed, r.matched }
