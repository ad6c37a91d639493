package analysis

import (
	"fmt"
	"time"

	"eventspace/internal/collect"
)

// TCPLatency computes the two-way TCP/IP latency of an inter-host hop from
// the stub-side tuple (t1 = Start, t4 = End, collected before the stub by
// e.g. EC12 in figure 1) and the communication-thread-side tuple
// (t2 = Start, t3 = End, collected by the first event collector the CT
// calls, e.g. EC13): (t4-t1) - (t3-t2).
func TCPLatency(client, server collect.TraceTuple) time.Duration {
	return time.Duration((client.End - client.Start) - (server.End - server.Start))
}

// ContributorMetrics are the section 3 per-contributor figures for one
// collective round.
type ContributorMetrics struct {
	Contributor   int
	Down          time.Duration // t2 - t1_i
	Up            time.Duration // t4_i - t3
	Total         time.Duration // (t4_i - t1_i) - (t3 - t2)
	ArrivalRank   int           // 0 = arrived first
	DepartureRank int           // 0 = departed first
	ArrivalWait   time.Duration // t1_l - t1_i (l = last arriver)
	DepartureWait time.Duration // t4_i - t4_f (f = first departer)
}

// RoundMetrics is the full analysis of one collective round.
type RoundMetrics struct {
	Seq         uint32
	Per         []ContributorMetrics // one per contributor, indexed by contributor id
	LastArrival int                  // contributor that arrived last
	FirstDepart int                  // contributor that departed first
}

// AnalyzeRound computes the section 3 metrics for a complete round.
// Arrivals rank by t1 and departures by t4, ties broken on contributor
// id for determinism; each rank is counted straight off the dense slots,
// so Per is the only allocation.
func AnalyzeRound(r *Round) (RoundMetrics, error) {
	if !r.Complete() {
		return RoundMetrics{}, fmt.Errorf("analysis: round %d incomplete (%d/%d contributors, collective=%v)",
			r.Seq, r.n, len(r.contribs), r.haveColl)
	}
	cs := r.contribs
	t2 := r.Collective.Start
	t3 := r.Collective.End
	out := RoundMetrics{Seq: r.Seq, Per: make([]ContributorMetrics, len(cs))}
	for i, c := range cs {
		p := &out.Per[i]
		p.Contributor = i
		for j, o := range cs {
			if o.Start < c.Start || (o.Start == c.Start && j < i) {
				p.ArrivalRank++
			}
			if o.End < c.End || (o.End == c.End && j < i) {
				p.DepartureRank++
			}
		}
		if p.ArrivalRank == len(cs)-1 {
			out.LastArrival = i
		}
		if p.DepartureRank == 0 {
			out.FirstDepart = i
		}
	}
	t1Last := cs[out.LastArrival].Start
	t4First := cs[out.FirstDepart].End
	for i, c := range cs {
		p := &out.Per[i]
		p.Down = time.Duration(t2 - c.Start)
		p.Up = time.Duration(c.End - t3)
		p.Total = time.Duration((c.End - c.Start) - (t3 - t2))
		p.ArrivalWait = time.Duration(t1Last - c.Start)
		p.DepartureWait = time.Duration(c.End - t4First)
	}
	return out, nil
}

// Joiner assembles rounds from the tuple streams of one collective
// wrapper's event collectors: k contributor collectors plus the collective
// collector. Because trace buffers are bounded, some rounds never
// complete; the joiner keeps at most maxPending partial rounds and evicts
// the oldest, counting them as lost.
type Joiner struct {
	rounds *PendingRounds
	emit   func(RoundMetrics)
}

// NewJoiner creates a joiner for a k-contributor collective. emit is
// called with the metrics of every completed round, in completion order.
func NewJoiner(k, maxPending int, emit func(RoundMetrics)) (*Joiner, error) {
	if k < 1 {
		return nil, fmt.Errorf("analysis: joiner: k %d < 1", k)
	}
	if emit == nil {
		return nil, fmt.Errorf("analysis: joiner: nil emit")
	}
	return &Joiner{rounds: NewPendingRounds(k, maxPending), emit: emit}, nil
}

// Lost reports how many partial rounds were evicted.
func (j *Joiner) Lost() uint64 { return j.rounds.Lost() }

// Pending reports how many partial rounds are buffered.
func (j *Joiner) Pending() int { return j.rounds.Len() }

// AddCollective feeds the collective wrapper's tuple for its round.
func (j *Joiner) AddCollective(t collect.TraceTuple) {
	r := j.rounds.Get(t.Seq)
	r.SetCollective(t)
	j.finish(r)
}

// AddContributor feeds contributor i's tuple for its round. A tuple
// from an i outside [0,k) is dropped.
func (j *Joiner) AddContributor(i int, t collect.TraceTuple) {
	if i < 0 || i >= j.rounds.K() {
		return
	}
	r := j.rounds.Get(t.Seq)
	r.SetContributor(i, t)
	j.finish(r)
}

func (j *Joiner) finish(r *Round) {
	if !r.Complete() {
		return
	}
	m, err := AnalyzeRound(r)
	j.rounds.Done(r)
	if err == nil {
		j.emit(m)
	}
}

// OrderCounter accumulates the arrival (or departure) order distribution:
// how many times each contributor held each rank, and in particular the
// last-arrival counts driving the load-balance monitor's weighted tree.
type OrderCounter struct {
	k      int
	counts [][]uint64 // [contributor][rank]
}

// NewOrderCounter creates a counter for k contributors.
func NewOrderCounter(k int) *OrderCounter {
	c := &OrderCounter{k: k, counts: make([][]uint64, k)}
	for i := range c.counts {
		c.counts[i] = make([]uint64, k)
	}
	return c
}

// Observe records that contributor i held the given rank.
func (c *OrderCounter) Observe(contributor, rank int) {
	if contributor < 0 || contributor >= c.k || rank < 0 || rank >= c.k {
		return
	}
	c.counts[contributor][rank]++
}

// Count returns how often contributor i held the given rank.
func (c *OrderCounter) Count(contributor, rank int) uint64 {
	if contributor < 0 || contributor >= c.k || rank < 0 || rank >= c.k {
		return 0
	}
	return c.counts[contributor][rank]
}

// LastCounts returns each contributor's count of last-place ranks.
func (c *OrderCounter) LastCounts() []uint64 {
	out := make([]uint64, c.k)
	for i := range c.counts {
		out[i] = c.counts[i][c.k-1]
	}
	return out
}

// Total returns the number of observations folded in per contributor slot.
func (c *OrderCounter) Total() uint64 {
	var n uint64
	for _, row := range c.counts {
		for _, v := range row {
			n += v
		}
	}
	return n
}
