package analysis

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"eventspace/internal/collect"
)

// refJoiner is the map-based round join the dense PendingRounds
// replaced, kept as a reference: one map per round, one sort.Slice per
// ranking. Each pending round remembers its creation stamp, so an
// insertion-order entry left behind by a completed or evicted round
// never counts for a later round that reuses its sequence number.
type refJoiner struct {
	k, maxPending int
	pending       map[uint32]*refRound
	order         []refEntry
	gen           uint64
	lost          uint64
	emit          func(RoundMetrics)
}

type refRound struct {
	seq      uint32
	gen      uint64
	coll     collect.TraceTuple
	haveColl bool
	contribs map[int]collect.TraceTuple
}

type refEntry struct {
	seq uint32
	gen uint64
}

func newRefJoiner(k, maxPending int, emit func(RoundMetrics)) *refJoiner {
	return &refJoiner{k: k, maxPending: maxPending, pending: make(map[uint32]*refRound), emit: emit}
}

func (j *refJoiner) round(seq uint32) *refRound {
	if r, ok := j.pending[seq]; ok {
		return r
	}
	j.gen++
	r := &refRound{seq: seq, gen: j.gen, contribs: make(map[int]collect.TraceTuple)}
	j.pending[seq] = r
	j.order = append(j.order, refEntry{seq, j.gen})
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
	return r
}

func (j *refJoiner) addCollective(t collect.TraceTuple) {
	r := j.round(t.Seq)
	r.coll, r.haveColl = t, true
	j.finish(r)
}

func (j *refJoiner) addContributor(i int, t collect.TraceTuple) {
	r := j.round(t.Seq)
	r.contribs[i] = t
	j.finish(r)
}

func (j *refJoiner) finish(r *refRound) {
	if !r.haveColl || len(r.contribs) != j.k {
		return
	}
	delete(j.pending, r.seq)
	j.emit(refAnalyze(r))
}

// refAnalyze is the sort-based section 3 analysis.
func refAnalyze(r *refRound) RoundMetrics {
	ids := make([]int, 0, len(r.contribs))
	for id := range r.contribs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	rank := func(key func(collect.TraceTuple) int64) (order []int, ranks map[int]int) {
		order = append([]int(nil), ids...)
		sort.Slice(order, func(a, b int) bool {
			ta, tb := key(r.contribs[order[a]]), key(r.contribs[order[b]])
			if ta != tb {
				return ta < tb
			}
			return order[a] < order[b]
		})
		ranks = make(map[int]int, len(order))
		for i, id := range order {
			ranks[id] = i
		}
		return order, ranks
	}
	byArr, arrRank := rank(func(t collect.TraceTuple) int64 { return t.Start })
	byDep, depRank := rank(func(t collect.TraceTuple) int64 { return t.End })
	last, first := byArr[len(byArr)-1], byDep[0]
	t2, t3 := r.coll.Start, r.coll.End
	out := RoundMetrics{Seq: r.seq, LastArrival: last, FirstDepart: first}
	for _, id := range ids {
		c := r.contribs[id]
		out.Per = append(out.Per, ContributorMetrics{
			Contributor:   id,
			Down:          time.Duration(t2 - c.Start),
			Up:            time.Duration(c.End - t3),
			Total:         time.Duration((c.End - c.Start) - (t3 - t2)),
			ArrivalRank:   arrRank[id],
			DepartureRank: depRank[id],
			ArrivalWait:   time.Duration(r.contribs[last].Start - c.Start),
			DepartureWait: time.Duration(c.End - r.contribs[first].End),
		})
	}
	return out
}

func (j *refJoiner) state() JoinerState {
	st := JoinerState{K: j.k, MaxPending: j.maxPending, Lost: j.lost}
	for _, e := range j.order {
		r, ok := j.pending[e.seq]
		if !ok || r.gen != e.gen {
			continue
		}
		rs := RoundState{Seq: r.seq, Collective: r.coll, HaveColl: r.haveColl}
		ids := make([]int, 0, len(r.contribs))
		for id := range r.contribs {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			rs.Contribs = append(rs.Contribs, ContribState{ID: int32(id), Tuple: r.contribs[id]})
		}
		st.Pending = append(st.Pending, rs)
	}
	return st
}

// joinEvent is one tuple offered to a join: contributor -1 is the
// collective wrapper.
type joinEvent struct {
	contributor int
	t           collect.TraceTuple
}

// randomJoinEvents builds a shuffled k-contributor tuple stream with
// timestamp ties, dropped tuples (rounds that never complete, so the
// joins evict), and duplicate re-feeds both before and after a round
// completes.
func randomJoinEvents(rng *rand.Rand, k, rounds int) []joinEvent {
	var evs []joinEvent
	for seq := uint32(0); seq < uint32(rounds); seq++ {
		base := int64(seq) * 100
		if rng.Intn(8) != 0 {
			evs = append(evs, joinEvent{-1, collect.TraceTuple{Seq: seq, Start: base + int64(rng.Intn(3)), End: base + 5 + int64(rng.Intn(3))}})
		}
		for c := 0; c < k; c++ {
			if rng.Intn(10) == 0 {
				continue
			}
			evs = append(evs, joinEvent{c, collect.TraceTuple{
				ECID: uint32(c), Seq: seq,
				Start: base + int64(rng.Intn(4)), End: base + 6 + int64(rng.Intn(4)),
			}})
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
		evs = append(evs[:at], append([]joinEvent{dup}, evs[at:]...)...)
	}
	return evs
}

// TestJoinerMatchesMapReference drives the dense joiner and the
// map-based reference with the same random streams and requires the
// same emitted metrics, loss counts and snapshots throughout, with the
// dense joiner snapshotted and restored at random points mid-stream.
func TestJoinerMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 200; trial++ {
		k := 1 + rng.Intn(6)
		maxPending := 1 + rng.Intn(6)
		evs := randomJoinEvents(rng, k, 20+rng.Intn(60))

		var got, want []RoundMetrics
		emit := func(m RoundMetrics) { got = append(got, m) }
		j, err := NewJoiner(k, maxPending, emit)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefJoiner(k, maxPending, func(m RoundMetrics) { want = append(want, m) })
		for n, ev := range evs {
			if ev.contributor < 0 {
				j.AddCollective(ev.t)
				ref.addCollective(ev.t)
			} else {
				j.AddContributor(ev.contributor, ev.t)
				ref.addContributor(ev.contributor, ev.t)
			}
			if rng.Intn(15) == 0 {
				st := j.State()
				if want := ref.state(); !reflect.DeepEqual(st, want) {
					t.Fatalf("trial %d event %d: state\n got %+v\nwant %+v", trial, n, st, want)
				}
				if j, err = NewJoinerFrom(st, emit); err != nil {
					t.Fatalf("trial %d event %d: restore: %v", trial, n, err)
				}
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (k=%d max=%d): emitted\n got %+v\nwant %+v", trial, k, maxPending, got, want)
		}
		if j.Lost() != ref.lost || j.Pending() != len(ref.pending) {
			t.Fatalf("trial %d: lost/pending %d/%d, reference %d/%d", trial, j.Lost(), j.Pending(), ref.lost, len(ref.pending))
		}
		if st, want := j.State(), ref.state(); !reflect.DeepEqual(st, want) {
			t.Fatalf("trial %d: final state\n got %+v\nwant %+v", trial, st, want)
		}
	}
}

func TestJoinerRestoreRejectsContributorOutOfRange(t *testing.T) {
	j, err := NewJoiner(3, 8, func(RoundMetrics) {})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []int32{3, -1} {
		st := JoinerState{K: 3, MaxPending: 8, Pending: []RoundState{
			{Seq: 7, Contribs: []ContribState{{ID: 0}, {ID: id}}},
		}}
		if err := j.Restore(st); err == nil {
			t.Fatalf("contributor id %d accepted for k=3", id)
		}
	}
	dup := JoinerState{K: 3, MaxPending: 8, Pending: []RoundState{{Seq: 7}, {Seq: 7}}}
	if err := j.Restore(dup); err == nil {
		t.Fatal("repeated round accepted")
	}
}

// TestPendingRoundsOrderStaysBounded: the creation-order slice must not
// grow with the number of rounds a long-running join completes, and
// compacting it must not disturb the snapshot of rounds still pending.
func TestPendingRoundsOrderStaysBounded(t *testing.T) {
	const k, maxPending = 2, 8
	j, err := NewJoiner(k, maxPending, func(RoundMetrics) {})
	if err != nil {
		t.Fatal(err)
	}
	// A few rounds that never complete stay pending throughout.
	for seq := uint32(1 << 30); seq < 1<<30+3; seq++ {
		j.AddContributor(0, collect.TraceTuple{Seq: seq, Start: int64(seq)})
	}
	before := j.State()
	for seq := uint32(0); seq < 1_000_000; seq++ {
		j.AddContributor(1, collect.TraceTuple{Seq: seq, Start: 2})
		j.AddCollective(collect.TraceTuple{Seq: seq})
		j.AddContributor(0, collect.TraceTuple{Seq: seq, Start: 1})
		if n := len(j.rounds.order); n > 2*maxPending+1 {
			t.Fatalf("after round %d: len(order) = %d > 2*maxPending+1", seq, n)
		}
	}
	if after := j.State(); !reflect.DeepEqual(after, before) {
		t.Fatalf("state changed by completed rounds:\n got %+v\nwant %+v", after, before)
	}
}

// TestStreamMedianMatchesSort checks the one-shift window update
// against a brute-force sort of every window, on values drawn from a
// small set so that most samples have duplicates in the window.
func TestStreamMedianMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		w := 1 + rng.Intn(20)
		s := NewStream(w)
		var all []float64
		for i := 0; i < 200; i++ {
			x := float64(rng.Intn(1 + rng.Intn(6)))
			s.Add(x)
			all = append(all, x)
			win := append([]float64(nil), all[max(0, len(all)-w):]...)
			sort.Float64s(win)
			if !reflect.DeepEqual(s.sorted, win) {
				t.Fatalf("trial %d sample %d (w=%d): sorted window %v, want %v", trial, i, w, s.sorted, win)
			}
			med := win[len(win)/2]
			if len(win)%2 == 0 {
				med = (win[len(win)/2-1] + win[len(win)/2]) / 2
			}
			if s.Median() != med {
				t.Fatalf("trial %d sample %d: median %v, want %v", trial, i, s.Median(), med)
			}
		}
	}
}

var sinkMetrics RoundMetrics

// BenchmarkJoinerRound joins one complete round per op (k=8
// contributors plus the collective, contributors in a rotating order)
// and analyses it. RoundMetrics.Per is the one allocation a completed
// round may make.
func BenchmarkJoinerRound(b *testing.B) {
	const k = 8
	j, err := NewJoiner(k, 256, func(m RoundMetrics) { sinkMetrics = m })
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq := uint32(i)
		base := int64(i) * 1000
		for c := 0; c < k; c++ {
			id := (c + i) % k
			j.AddContributor(id, collect.TraceTuple{Seq: seq, Start: base + int64(id*7%k), End: base + 500 + int64(id)})
		}
		j.AddCollective(collect.TraceTuple{Seq: seq, Start: base + 100, End: base + 200})
	}
}

// BenchmarkStreamAdd feeds one sample per op into a full NWS window of
// 100; gated at 0 allocs/op.
func BenchmarkStreamAdd(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 4096)
	for i := range xs {
		xs[i] = float64(rng.Intn(500))
	}
	s := NewStream(DefaultMedianWindow)
	for _, x := range xs[:DefaultMedianWindow] {
		s.Add(x)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Add(xs[i&(len(xs)-1)])
	}
}
