package monitor

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"eventspace/internal/analysis"
	"eventspace/internal/collect"
)

// refLBJoin is the map-based last-arrival join lbJoin replaced, kept as
// a reference: one map per round. Each pending round remembers its
// creation stamp, so an insertion-order entry left by a finished round
// never counts for a later round that reuses its sequence number.
type refLBJoin struct {
	k, maxPending int
	pending       map[uint32]*refLBRound
	order         []refLBEntry
	gen           uint64
	lost          uint64
	floor         uint32
	maxDone       uint32
}

type refLBRound struct {
	gen      uint64
	contribs map[int]collect.TraceTuple
}

type refLBEntry struct {
	seq uint32
	gen uint64
}

func (j *refLBJoin) add(contributor int, t collect.TraceTuple) (int, bool) {
	if j.floor > 0 && t.Seq <= j.floor {
		return 0, false
	}
	r, ok := j.pending[t.Seq]
	if !ok {
		j.gen++
		r = &refLBRound{gen: j.gen, contribs: make(map[int]collect.TraceTuple)}
		j.pending[t.Seq] = r
		j.order = append(j.order, refLBEntry{t.Seq, j.gen})
		if len(j.pending) > j.maxPending {
			for len(j.order) > 0 {
				e := j.order[0]
				j.order = j.order[1:]
				if old, ok := j.pending[e.seq]; ok && old.gen == e.gen {
					delete(j.pending, e.seq)
					j.lost++
					break
				}
			}
		}
	}
	r.contribs[contributor] = t
	if len(r.contribs) < j.k {
		return 0, false
	}
	delete(j.pending, t.Seq)
	if t.Seq > j.maxDone {
		j.maxDone = t.Seq
	}
	last, lastStart := -1, int64(-1)
	for c, tu := range r.contribs {
		if tu.Start > lastStart || (tu.Start == lastStart && c > last) {
			last, lastStart = c, tu.Start
		}
	}
	return last, true
}

func (j *refLBJoin) state() LBJoinState {
	st := LBJoinState{K: j.k, MaxPending: j.maxPending, Lost: j.lost, Floor: j.floor, MaxDone: j.maxDone}
	for _, e := range j.order {
		r, ok := j.pending[e.seq]
		if !ok || r.gen != e.gen {
			continue
		}
		rs := LBJoinRoundState{Seq: e.seq}
		ids := make([]int, 0, len(r.contribs))
		for id := range r.contribs {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			rs.Contribs = append(rs.Contribs, analysis.ContribState{ID: int32(id), Tuple: r.contribs[id]})
		}
		st.Pending = append(st.Pending, rs)
	}
	return st
}

// TestLBJoinMatchesMapReference drives lbJoin and the map-based
// reference with the same random streams — shuffled arrivals, Start
// ties, dropped tuples that force evictions, duplicate re-feeds before
// and after completion, a floor — and requires identical verdicts,
// weighted trees, loss counts and snapshots, with lbJoin snapshotted
// and restored at random points mid-stream.
func TestLBJoinMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 200; trial++ {
		k := 1 + rng.Intn(6)
		maxPending := 1 + rng.Intn(6)
		floor := uint32(rng.Intn(3)) * 5
		type event struct {
			c int
			t collect.TraceTuple
		}
		var evs []event
		for seq := uint32(1); seq <= uint32(20+rng.Intn(60)); seq++ {
			for c := 0; c < k; c++ {
				if rng.Intn(10) == 0 {
					continue
				}
				evs = append(evs, event{c, collect.TraceTuple{ECID: uint32(c), Seq: seq, Start: int64(seq)*10 + int64(rng.Intn(3))}})
			}
		}
		rng.Shuffle(len(evs), func(a, b int) {
			if d := a - b; d < 3*k && d > -3*k {
				evs[a], evs[b] = evs[b], evs[a]
			}
		})
		for n := len(evs) / 10; n > 0; n-- {
			at := rng.Intn(len(evs))
			dup := evs[rng.Intn(at+1)]
			evs = append(evs[:at], append([]event{dup}, evs[at:]...)...)
		}

		j := newLBJoin(k, maxPending)
		j.floor = floor
		ref := &refLBJoin{k: k, maxPending: maxPending, pending: make(map[uint32]*refLBRound), floor: floor}
		got, want := NewWeightedTree(), NewWeightedTree()
		for n, ev := range evs {
			gl, gd := j.add(ev.c, ev.t)
			wl, wd := ref.add(ev.c, ev.t)
			if gl != wl || gd != wd {
				t.Fatalf("trial %d event %d: verdict %d/%v, reference %d/%v", trial, n, gl, gd, wl, wd)
			}
			if gd {
				got.Add("n", gl, 1)
				want.Add("n", wl, 1)
			}
			if rng.Intn(15) == 0 {
				st := j.state()
				if want := ref.state(); !reflect.DeepEqual(st, want) {
					t.Fatalf("trial %d event %d: state\n got %+v\nwant %+v", trial, n, st, want)
				}
				j = newLBJoin(k, lbMaxPending)
				if err := j.restore(st); err != nil {
					t.Fatalf("trial %d event %d: restore: %v", trial, n, err)
				}
			}
		}
		if !reflect.DeepEqual(weightedCounts(got), weightedCounts(want)) {
			t.Fatalf("trial %d: weighted %v, reference %v", trial, weightedCounts(got), weightedCounts(want))
		}
		if st, want := j.state(), ref.state(); !reflect.DeepEqual(st, want) {
			t.Fatalf("trial %d: final state\n got %+v\nwant %+v", trial, st, want)
		}
	}
}

func TestLBJoinRestoreRejectsContributorOutOfRange(t *testing.T) {
	j := newLBJoin(2, lbMaxPending)
	st := LBJoinState{K: 2, MaxPending: 8, Pending: []LBJoinRoundState{
		{Seq: 3, Contribs: []analysis.ContribState{{ID: 2}}},
	}}
	if err := j.restore(st); err == nil {
		t.Fatal("contributor id 2 accepted for k=2")
	}
	// Through the replay shadow, the error reaches recovery, which falls
	// back a rung instead of panicking on the dense slot index.
	ports := map[uint32]ReplayPort{1: {Node: "a", Contributor: 0, Fanin: 2}, 2: {Node: "a", Contributor: 1, Fanin: 2}}
	if _, err := NewLastArrivalReplayFrom(ports, LastArrivalState{Joins: []NamedLBJoinState{{Node: "a", Join: st}}}); err == nil {
		t.Fatal("replay restored a join with an out-of-range contributor")
	}
}

var sinkLast int

// BenchmarkLBJoinAdd feeds one contributor tuple per op into an 8-way
// join, two rounds interleaved so a round is usually pending; gated at
// 0 allocs/op.
func BenchmarkLBJoinAdd(b *testing.B) {
	const k = 8
	j := newLBJoin(k, lbMaxPending)
	feed := func(i int) {
		round := i / k
		seq := uint32(round/2*2 + (i % 2))
		c := (i / 2) % k
		if last, done := j.add(c, collect.TraceTuple{Seq: seq, Start: int64(c * 3 % k)}); done {
			sinkLast = last
		}
	}
	for i := 0; i < 64*k; i++ {
		feed(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		feed(64*k + i)
	}
}
