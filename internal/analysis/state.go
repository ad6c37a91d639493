// Snapshot/restore for the streaming-analysis state. The recovery
// checkpointer (internal/checkpoint) persists the statistics monitor's
// shadow state so a failed front end can resume from the last
// checkpoint plus a short archive suffix instead of a full replay. The
// contract here is behavioral equivalence, not bit-copying internals: a
// restored Stream or Joiner fed the same future samples produces
// exactly the output the original would have — that is what makes
// checkpointed recovery byte-identical to full replay.
package analysis

import (
	"fmt"

	"eventspace/internal/collect"
)

// StreamState is a Stream's portable snapshot. The ring is stored
// oldest-first, so the state is canonical: two streams that saw the
// same samples snapshot identically regardless of internal head
// position.
type StreamState struct {
	N      uint64
	Mean   float64
	M2     float64
	Min    float64
	Max    float64
	Window int
	Ring   []float64 // last min(N, Window) samples, oldest first
}

// State snapshots the stream.
func (s *Stream) State() StreamState {
	st := StreamState{
		N: s.n, Mean: s.mean, M2: s.m2, Min: s.min, Max: s.max,
		Window: s.window,
	}
	if len(s.ring) < s.window {
		// Not yet full: arrival order is slice order.
		st.Ring = append(st.Ring, s.ring...)
	} else {
		// Full: the oldest sample sits at head.
		st.Ring = append(st.Ring, s.ring[s.head:]...)
		st.Ring = append(st.Ring, s.ring[:s.head]...)
	}
	return st
}

// NewStreamFrom rebuilds a stream from a snapshot. The restored stream
// is behaviorally identical to the snapshotted one: same statistics
// now, same outputs for any future sample sequence.
func NewStreamFrom(st StreamState) (*Stream, error) {
	window := st.Window
	if window < 1 {
		window = DefaultMedianWindow
	}
	if len(st.Ring) > window {
		return nil, fmt.Errorf("analysis: stream state ring %d exceeds window %d", len(st.Ring), window)
	}
	if uint64(len(st.Ring)) > st.N {
		return nil, fmt.Errorf("analysis: stream state ring %d exceeds sample count %d", len(st.Ring), st.N)
	}
	s := NewStream(window)
	s.n, s.mean, s.m2, s.min, s.max = st.N, st.Mean, st.M2, st.Min, st.Max
	// Oldest-first with head 0 reproduces the original eviction order:
	// the next insertion after the window fills replaces index 0.
	s.ring = append(s.ring, st.Ring...)
	s.sorted = append(s.sorted, st.Ring...)
	insertionSortFloat64s(s.sorted)
	return s, nil
}

// insertionSortFloat64s sorts in place; rings are at most a median
// window long, so simplicity beats sort.Float64s' interface costs.
func insertionSortFloat64s(a []float64) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// ContribState is one contributor tuple buffered in a partial round.
type ContribState struct {
	ID    int32
	Tuple collect.TraceTuple
}

// RoundState is one partial round buffered in a Joiner.
type RoundState struct {
	Seq        uint32
	Collective collect.TraceTuple
	HaveColl   bool
	Contribs   []ContribState // sorted by contributor id
}

// JoinerState is a Joiner's portable snapshot: configuration, loss
// count, and the live partial rounds in creation order. Rounds since
// completed or evicted are left out, so the state is canonical.
type JoinerState struct {
	K          int
	MaxPending int
	Lost       uint64
	Pending    []RoundState
}

// State snapshots the joiner.
func (j *Joiner) State() JoinerState {
	b := j.rounds
	return JoinerState{K: b.K(), MaxPending: b.MaxPending(), Lost: b.Lost(), Pending: b.State()}
}

// Restore overwrites the joiner's buffered state from a snapshot while
// keeping its emit hook. The snapshot's k must match the joiner's, and
// every contributor id must lie in [0,k).
func (j *Joiner) Restore(st JoinerState) error {
	if st.K != j.rounds.K() {
		return fmt.Errorf("analysis: joiner state k=%d, joiner has k=%d", st.K, j.rounds.K())
	}
	return j.rounds.Restore(st.MaxPending, st.Lost, st.Pending)
}

// NewJoinerFrom rebuilds a joiner from a snapshot, emitting completed
// rounds through emit exactly as the original would have.
func NewJoinerFrom(st JoinerState, emit func(RoundMetrics)) (*Joiner, error) {
	j, err := NewJoiner(st.K, st.MaxPending, emit)
	if err != nil {
		return nil, err
	}
	if err := j.Restore(st); err != nil {
		return nil, err
	}
	return j, nil
}
