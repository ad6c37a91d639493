package analysis

import (
	"fmt"

	"eventspace/internal/collect"
)

// Round is one collective operation being joined: the collective
// wrapper's tuple (t2 = Start, t3 = End) plus each contributor's tuple
// (t1_i = Start, t4_i = End), joined on the operation sequence number.
// Contributor tuples sit in dense slots indexed by contributor id
// 0..k-1, so joining and analysing a round needs no map.
type Round struct {
	Seq        uint32
	Collective collect.TraceTuple
	haveColl   bool
	contribs   []collect.TraceTuple // slot i holds contributor i's tuple
	have       []bool               // slot i is filled
	n          int                  // filled slots
	gen        uint32               // creation stamp in a PendingRounds
}

// NewRound returns an empty round of a k-contributor collective.
func NewRound(seq uint32, k int) *Round {
	//lint:allow hotalloc constructor: PendingRounds.Get reaches it only while its free list is empty
	return &Round{Seq: seq, contribs: make([]collect.TraceTuple, k), have: make([]bool, k)}
}

// SetCollective stores the collective wrapper's tuple.
func (r *Round) SetCollective(t collect.TraceTuple) {
	r.Collective = t
	r.haveColl = true
}

// SetContributor stores contributor i's tuple; a re-fed tuple
// overwrites the slot. It reports false, storing nothing, for an i
// outside [0,k).
func (r *Round) SetContributor(i int, t collect.TraceTuple) bool {
	if i < 0 || i >= len(r.contribs) {
		return false
	}
	if !r.have[i] {
		r.have[i] = true
		r.n++
	}
	r.contribs[i] = t
	return true
}

// Contributor returns contributor i's tuple and whether it has arrived.
func (r *Round) Contributor(i int) (collect.TraceTuple, bool) {
	if i < 0 || i >= len(r.contribs) || !r.have[i] {
		return collect.TraceTuple{}, false
	}
	return r.contribs[i], true
}

// Contributors reports how many contributor tuples have arrived.
func (r *Round) Contributors() int { return r.n }

// Complete reports whether all contributor tuples and the collective
// tuple have arrived.
func (r *Round) Complete() bool { return r.haveColl && r.n == len(r.contribs) }

// reset empties the round for reuse under a new sequence number.
func (r *Round) reset(seq uint32) {
	r.Seq = seq
	r.Collective = collect.TraceTuple{}
	r.haveColl = false
	clear(r.have)
	r.n = 0
}

// freeRoundsCap bounds how many finished rounds a PendingRounds keeps
// for reuse. Steady-state joins hold a handful of partial rounds, so a
// small list makes creation allocation-free without the buffer
// retaining its peak pending set after a burst.
const freeRoundsCap = 32

// pendingRef is one creation-order entry: the round's sequence number
// and creation stamp. An entry is stale once its round has completed or
// been evicted, even if the same sequence number is pending again.
type pendingRef struct{ seq, gen uint32 }

// PendingRounds is the pending-round buffer behind both round joins
// (Joiner here, and the load-balance monitor's last-arrival join). It
// keeps at most maxPending partial rounds of a k-contributor
// collective; creating one more evicts the oldest still-pending round
// in creation order and counts it lost.
type PendingRounds struct {
	k          int
	maxPending int
	bySeq      map[uint32]*Round
	order      []pendingRef // creation order; order[head:] is unconsumed
	head       int
	gen        uint32
	free       []*Round
	lost       uint64
}

// NewPendingRounds creates an empty buffer; maxPending < 1 means 64.
func NewPendingRounds(k, maxPending int) *PendingRounds {
	if maxPending < 1 {
		maxPending = 64
	}
	return &PendingRounds{k: k, maxPending: maxPending, bySeq: make(map[uint32]*Round)}
}

// K returns the contributor count rounds are joined over.
func (b *PendingRounds) K() int { return b.k }

// MaxPending returns the eviction bound.
func (b *PendingRounds) MaxPending() int { return b.maxPending }

// Lost reports how many partial rounds were evicted.
func (b *PendingRounds) Lost() uint64 { return b.lost }

// Len reports how many partial rounds are buffered.
func (b *PendingRounds) Len() int { return len(b.bySeq) }

// Get returns seq's pending round, creating it if absent. Creating a
// round beyond maxPending evicts the oldest other pending round.
//
//lint:hotpath per-tuple round lookup behind both joins; gated by BenchmarkJoinerRound and BenchmarkLBJoinAdd
func (b *PendingRounds) Get(seq uint32) *Round {
	if r, ok := b.bySeq[seq]; ok {
		return r
	}
	r := b.create(seq)
	if len(b.bySeq) > b.maxPending {
		b.evictOldest()
	}
	b.compact()
	return r
}

// create adds an empty round for seq at the back of the creation order,
// reusing a finished round when one is free.
func (b *PendingRounds) create(seq uint32) *Round {
	var r *Round
	if n := len(b.free); n > 0 {
		r = b.free[n-1]
		b.free = b.free[:n-1]
		r.reset(seq)
	} else {
		r = NewRound(seq, b.k)
	}
	b.gen++
	r.gen = b.gen
	b.bySeq[seq] = r
	//lint:allow hotalloc amortized: compact keeps order within 2x the live rounds, so the backing array stops growing
	b.order = append(b.order, pendingRef{seq: seq, gen: r.gen})
	return r
}

// evictOldest drops the oldest live round in creation order. The round
// just created sits at the back, so with more than maxPending >= 1
// rounds live an older one is always found first.
func (b *PendingRounds) evictOldest() {
	for b.head < len(b.order) {
		ref := b.order[b.head]
		b.head++
		if r, ok := b.bySeq[ref.seq]; ok && r.gen == ref.gen {
			b.lost++
			b.Done(r)
			return
		}
	}
}

// compact drops stale creation-order entries once they outnumber live
// ones, so the order slice stays within twice the live rounds however
// long the join runs. Live entries keep their relative order, so
// eviction picks exactly the round it would have picked without it.
func (b *PendingRounds) compact() {
	if len(b.order) <= 2*len(b.bySeq) {
		return
	}
	live := b.order[:0]
	for _, ref := range b.order[b.head:] {
		if r, ok := b.bySeq[ref.seq]; ok && r.gen == ref.gen {
			//lint:allow hotalloc in-place filter: live never outgrows the slice it is carved from
			live = append(live, ref)
		}
	}
	b.order = live
	b.head = 0
}

// Done removes a finished (or evicted) round and recycles it; r must not
// be used afterwards.
func (b *PendingRounds) Done(r *Round) {
	delete(b.bySeq, r.Seq)
	if len(b.free) < freeRoundsCap {
		//lint:allow hotalloc bounded: the free list is capped at freeRoundsCap and keeps its backing array
		b.free = append(b.free, r)
	}
}

// live returns the pending rounds in creation order.
func (b *PendingRounds) live() []*Round {
	out := make([]*Round, 0, len(b.bySeq))
	for _, ref := range b.order[b.head:] {
		if r, ok := b.bySeq[ref.seq]; ok && r.gen == ref.gen {
			out = append(out, r)
		}
	}
	return out
}

// State snapshots the pending rounds in creation order, contributors
// sorted by id.
func (b *PendingRounds) State() []RoundState {
	var out []RoundState
	for _, r := range b.live() {
		rs := RoundState{Seq: r.Seq, Collective: r.Collective, HaveColl: r.haveColl}
		for i, ok := range r.have {
			if ok {
				rs.Contribs = append(rs.Contribs, ContribState{ID: int32(i), Tuple: r.contribs[i]})
			}
		}
		out = append(out, rs)
	}
	return out
}

// Restore replaces the buffer's contents with snapshotted rounds, in
// the given creation order, and sets the loss count and (when >= 1) the
// eviction bound. A round holding more than k contributors, a
// contributor id outside [0,k), or a repeated sequence number is an
// error: the snapshot is corrupt, and the caller falls back instead of
// joining wrongly.
func (b *PendingRounds) Restore(maxPending int, lost uint64, rounds []RoundState) error {
	for _, r := range b.live() {
		b.Done(r)
	}
	b.order, b.head = b.order[:0], 0
	if maxPending >= 1 {
		b.maxPending = maxPending
	}
	b.lost = lost
	for _, rs := range rounds {
		if len(rs.Contribs) > b.k {
			return fmt.Errorf("analysis: round state %d holds %d contributors, k=%d", rs.Seq, len(rs.Contribs), b.k)
		}
		if _, dup := b.bySeq[rs.Seq]; dup {
			return fmt.Errorf("analysis: round state %d appears twice", rs.Seq)
		}
		r := b.create(rs.Seq)
		r.Collective, r.haveColl = rs.Collective, rs.HaveColl
		for _, c := range rs.Contribs {
			if !r.SetContributor(int(c.ID), c.Tuple) {
				return fmt.Errorf("analysis: round state %d: contributor id %d outside [0,%d)", rs.Seq, c.ID, b.k)
			}
		}
	}
	return nil
}
