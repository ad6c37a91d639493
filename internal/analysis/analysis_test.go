package analysis

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"eventspace/internal/collect"
)

func TestStreamBasicStats(t *testing.T) {
	s := NewStream(100)
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.Count() != 8 {
		t.Fatalf("Count = %d", s.Count())
	}
	if got := s.Mean(); math.Abs(got-5) > 1e-9 {
		t.Fatalf("Mean = %v", got)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("Min/Max = %v/%v", s.Min(), s.Max())
	}
	// Sample std of this classic set is sqrt(32/7).
	if got := s.Std(); math.Abs(got-math.Sqrt(32.0/7)) > 1e-9 {
		t.Fatalf("Std = %v", got)
	}
	if got := s.Median(); got != 4.5 {
		t.Fatalf("Median = %v", got)
	}
}

func TestStreamEmptyAndSingle(t *testing.T) {
	s := NewStream(10)
	if s.Mean() != 0 || s.Std() != 0 || s.Median() != 0 || s.Count() != 0 {
		t.Fatal("empty stream stats nonzero")
	}
	s.Add(-3)
	if s.Mean() != -3 || s.Min() != -3 || s.Max() != -3 || s.Std() != 0 || s.Median() != -3 {
		t.Fatalf("single-sample stats: %+v", s.Snapshot())
	}
}

func TestStreamSlidingWindowMedian(t *testing.T) {
	s := NewStream(3)
	for _, x := range []float64{100, 100, 100} {
		s.Add(x)
	}
	if s.Median() != 100 {
		t.Fatalf("Median = %v", s.Median())
	}
	// Window slides: the three newest are 1,2,3.
	s.Add(1)
	s.Add(2)
	s.Add(3)
	if s.Median() != 2 {
		t.Fatalf("Median after slide = %v (window should hold 1,2,3)", s.Median())
	}
	// Mean is over all samples, not the window.
	want := (100*3 + 1 + 2 + 3) / 6.0
	if math.Abs(s.Mean()-want) > 1e-9 {
		t.Fatalf("Mean = %v, want %v", s.Mean(), want)
	}
}

func TestStreamDefaultWindow(t *testing.T) {
	s := NewStream(0)
	if s.window != DefaultMedianWindow {
		t.Fatalf("window = %d", s.window)
	}
}

// Property: against a brute-force reference for random samples.
func TestQuickStreamMatchesReference(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		const w = 7
		s := NewStream(w)
		var all []float64
		for _, v := range raw {
			x := float64(v)
			s.Add(x)
			all = append(all, x)
		}
		// Reference mean/min/max.
		var sum, mn, mx float64
		mn, mx = all[0], all[0]
		for _, x := range all {
			sum += x
			if x < mn {
				mn = x
			}
			if x > mx {
				mx = x
			}
		}
		mean := sum / float64(len(all))
		if math.Abs(s.Mean()-mean) > 1e-6*(1+math.Abs(mean)) || s.Min() != mn || s.Max() != mx {
			return false
		}
		// Reference windowed median.
		start := 0
		if len(all) > w {
			start = len(all) - w
		}
		win := append([]float64(nil), all[start:]...)
		sort.Float64s(win)
		var med float64
		if len(win)%2 == 1 {
			med = win[len(win)/2]
		} else {
			med = (win[len(win)/2-1] + win[len(win)/2]) / 2
		}
		return math.Abs(s.Median()-med) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTCPLatency(t *testing.T) {
	client := collect.TraceTuple{Start: 1000, End: 5000} // t1, t4
	server := collect.TraceTuple{Start: 2000, End: 3500} // t2, t3
	// (5000-1000) - (3500-2000) = 2500
	if got := TCPLatency(client, server); got != 2500 {
		t.Fatalf("TCPLatency = %v", got)
	}
}

func mkRound(t *testing.T, k int, t2, t3 int64, arr, dep []int64) *Round {
	t.Helper()
	r := NewRound(1, k)
	r.SetCollective(collect.TraceTuple{Seq: 1, Start: t2, End: t3})
	for i := 0; i < k; i++ {
		r.SetContributor(i, collect.TraceTuple{Seq: 1, Start: arr[i], End: dep[i]})
	}
	return r
}

func TestAnalyzeRoundMetrics(t *testing.T) {
	// Three contributors: arrivals at 10, 30, 20; collective runs 35..40;
	// departures at 50, 44, 47.
	r := mkRound(t, 3, 35, 40, []int64{10, 30, 20}, []int64{50, 44, 47})
	m, err := AnalyzeRound(r)
	if err != nil {
		t.Fatal(err)
	}
	if m.LastArrival != 1 {
		t.Fatalf("LastArrival = %d", m.LastArrival)
	}
	if m.FirstDepart != 1 {
		t.Fatalf("FirstDepart = %d", m.FirstDepart)
	}
	c0 := m.Per[0]
	if c0.Down != 25 { // t2 - t1 = 35-10
		t.Fatalf("c0.Down = %v", c0.Down)
	}
	if c0.Up != 10 { // t4 - t3 = 50-40
		t.Fatalf("c0.Up = %v", c0.Up)
	}
	if c0.Total != 35 { // (50-10)-(40-35)
		t.Fatalf("c0.Total = %v", c0.Total)
	}
	if c0.ArrivalRank != 0 || c0.DepartureRank != 2 {
		t.Fatalf("c0 ranks = %d/%d", c0.ArrivalRank, c0.DepartureRank)
	}
	if c0.ArrivalWait != 20 { // t1_last(30) - 10
		t.Fatalf("c0.ArrivalWait = %v", c0.ArrivalWait)
	}
	if c0.DepartureWait != 6 { // 50 - t4_first(44)
		t.Fatalf("c0.DepartureWait = %v", c0.DepartureWait)
	}
	c1 := m.Per[1]
	if c1.ArrivalWait != 0 || c1.DepartureWait != 0 {
		t.Fatalf("last arriver / first departer waits = %v/%v", c1.ArrivalWait, c1.DepartureWait)
	}
}

func TestAnalyzeRoundIncomplete(t *testing.T) {
	r := NewRound(1, 2)
	if _, err := AnalyzeRound(r); err == nil {
		t.Fatal("incomplete round analyzed")
	}
}

func TestAnalyzeRoundTieBreaksDeterministic(t *testing.T) {
	r := mkRound(t, 3, 10, 20, []int64{5, 5, 5}, []int64{25, 25, 25})
	m, err := AnalyzeRound(r)
	if err != nil {
		t.Fatal(err)
	}
	if m.LastArrival != 2 || m.FirstDepart != 0 {
		t.Fatalf("tie break: last=%d first=%d", m.LastArrival, m.FirstDepart)
	}
}

func TestJoinerEmitsCompletedRounds(t *testing.T) {
	var got []RoundMetrics
	j, err := NewJoiner(2, 8, func(m RoundMetrics) { got = append(got, m) })
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint32(0); seq < 5; seq++ {
		j.AddContributor(0, collect.TraceTuple{Seq: seq, Start: 10, End: 50})
		j.AddContributor(1, collect.TraceTuple{Seq: seq, Start: 20, End: 40})
		j.AddCollective(collect.TraceTuple{Seq: seq, Start: 25, End: 30})
	}
	if len(got) != 5 {
		t.Fatalf("emitted %d rounds", len(got))
	}
	if j.Pending() != 0 || j.Lost() != 0 {
		t.Fatalf("pending=%d lost=%d", j.Pending(), j.Lost())
	}
	if got[0].LastArrival != 1 {
		t.Fatalf("LastArrival = %d", got[0].LastArrival)
	}
}

func TestJoinerOutOfOrderDelivery(t *testing.T) {
	var got []RoundMetrics
	j, _ := NewJoiner(2, 8, func(m RoundMetrics) { got = append(got, m) })
	// Collective tuple arrives before contributors, and rounds interleave.
	j.AddCollective(collect.TraceTuple{Seq: 1, Start: 25, End: 30})
	j.AddCollective(collect.TraceTuple{Seq: 0, Start: 25, End: 30})
	j.AddContributor(1, collect.TraceTuple{Seq: 1, Start: 20, End: 40})
	j.AddContributor(0, collect.TraceTuple{Seq: 0, Start: 10, End: 50})
	j.AddContributor(0, collect.TraceTuple{Seq: 1, Start: 10, End: 50})
	j.AddContributor(1, collect.TraceTuple{Seq: 0, Start: 20, End: 40})
	if len(got) != 2 {
		t.Fatalf("emitted %d rounds", len(got))
	}
	if got[0].Seq != 1 || got[1].Seq != 0 {
		t.Fatalf("completion order = %d,%d", got[0].Seq, got[1].Seq)
	}
}

func TestJoinerEvictsOldest(t *testing.T) {
	j, _ := NewJoiner(2, 3, func(RoundMetrics) {})
	for seq := uint32(0); seq < 10; seq++ {
		j.AddContributor(0, collect.TraceTuple{Seq: seq})
	}
	if j.Pending() > 3 {
		t.Fatalf("pending = %d, cap 3", j.Pending())
	}
	if j.Lost() != 7 {
		t.Fatalf("lost = %d, want 7", j.Lost())
	}
}

func TestJoinerValidation(t *testing.T) {
	if _, err := NewJoiner(0, 1, func(RoundMetrics) {}); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := NewJoiner(2, 1, nil); err == nil {
		t.Fatal("nil emit accepted")
	}
	j, err := NewJoiner(2, 0, func(RoundMetrics) {})
	if err != nil || j.rounds.MaxPending() != 64 {
		t.Fatalf("maxPending default: %d %v", j.rounds.MaxPending(), err)
	}
}

func TestOrderCounter(t *testing.T) {
	c := NewOrderCounter(3)
	c.Observe(0, 2)
	c.Observe(0, 2)
	c.Observe(1, 0)
	c.Observe(2, 2)
	c.Observe(-1, 0) // ignored
	c.Observe(0, 9)  // ignored
	if c.Count(0, 2) != 2 || c.Count(1, 0) != 1 {
		t.Fatal("counts wrong")
	}
	if c.Count(-1, 0) != 0 || c.Count(0, 99) != 0 {
		t.Fatal("out-of-range count nonzero")
	}
	last := c.LastCounts()
	if last[0] != 2 || last[1] != 0 || last[2] != 1 {
		t.Fatalf("LastCounts = %v", last)
	}
	if c.Total() != 4 {
		t.Fatalf("Total = %d", c.Total())
	}
}

func TestStatsRecordCodec(t *testing.T) {
	in := StatsRecordFrom(42, KindUp, Result{Count: 7, Mean: 1.5, Min: 1, Max: 2, Std: 0.5, Median: 1.25})
	out, err := DecodeStatsRecord(in.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip: %+v != %+v", out, in)
	}
	if _, err := DecodeStatsRecord(make([]byte, 10)); err == nil {
		t.Fatal("short record accepted")
	}
}

func TestStatsRecordCountSaturates(t *testing.T) {
	r := StatsRecordFrom(1, KindDown, Result{Count: 1 << 30})
	if r.Count != math.MaxUint16 {
		t.Fatalf("Count = %d", r.Count)
	}
}

func TestQuickStatsRecordCodec(t *testing.T) {
	f := func(id uint32, kind uint8, count uint16, mean, min, max, std, med float32) bool {
		in := StatsRecord{ID: id, Kind: kind, Count: count, Mean: mean, Min: min, Max: max, Std: std, Median: med}
		out, err := DecodeStatsRecord(in.Encode())
		if err != nil {
			return false
		}
		// NaN != NaN; compare bit patterns.
		return out.ID == in.ID && out.Kind == in.Kind && out.Count == in.Count &&
			math.Float32bits(out.Mean) == math.Float32bits(in.Mean) &&
			math.Float32bits(out.Median) == math.Float32bits(in.Median)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeStatsRecords(t *testing.T) {
	a := StatsRecordFrom(1, KindDown, Result{Count: 1})
	b := StatsRecordFrom(2, KindUp, Result{Count: 2})
	recs, err := DecodeStatsRecords(append(a.Encode(), b.Encode()...))
	if err != nil || len(recs) != 2 || recs[0].ID != 1 || recs[1].ID != 2 {
		t.Fatalf("DecodeStatsRecords: %+v %v", recs, err)
	}
	if _, err := DecodeStatsRecords(make([]byte, 30)); err == nil {
		t.Fatal("ragged payload accepted")
	}
}

func TestLastArrivalRecordCodec(t *testing.T) {
	in := LastArrivalRecord{Node: 5, Contributor: 3, Count: 1 << 40}
	out, err := DecodeLastArrivalRecord(in.Encode())
	if err != nil || out != in {
		t.Fatalf("round trip: %+v %v", out, err)
	}
	if _, err := DecodeLastArrivalRecord(make([]byte, 8)); err == nil {
		t.Fatal("short record accepted")
	}
	recs, err := DecodeLastArrivalRecords(append(in.Encode(), in.Encode()...))
	if err != nil || len(recs) != 2 {
		t.Fatalf("batch decode: %v %v", recs, err)
	}
	if _, err := DecodeLastArrivalRecords(make([]byte, 20)); err == nil {
		t.Fatal("ragged payload accepted")
	}
}

func TestKindName(t *testing.T) {
	for kind, want := range map[int]string{
		KindDown: "down", KindUp: "up", KindTotal: "total",
		KindArrivalWait: "arrival-wait", KindDepartureWait: "departure-wait",
		KindTCP: "tcp", 99: "kind(99)",
	} {
		if KindName(kind) != want {
			t.Fatalf("KindName(%d) = %q", kind, KindName(kind))
		}
	}
}

func TestResultString(t *testing.T) {
	s := Result{Count: 3, Mean: 1, Min: 0, Max: 2, Std: 1, Median: 1}.String()
	if s == "" {
		t.Fatal("empty string")
	}
}

func TestRoundMetricsDurationsConsistent(t *testing.T) {
	// Total == Down + Up for every contributor (algebraic identity).
	r := mkRound(t, 4, 100, 140, []int64{10, 40, 25, 33}, []int64{200, 150, 170, 160})
	m, err := AnalyzeRound(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range m.Per {
		if c.Total != c.Down+c.Up {
			t.Fatalf("contributor %d: total %v != down %v + up %v", c.Contributor, c.Total, c.Down, c.Up)
		}
	}
}

func TestStreamSnapshotMatchesAccessors(t *testing.T) {
	s := NewStream(5)
	for i := 1; i <= 10; i++ {
		s.Add(float64(i))
	}
	snap := s.Snapshot()
	if snap.Mean != s.Mean() || snap.Min != s.Min() || snap.Max != s.Max() ||
		snap.Std != s.Std() || snap.Median != s.Median() || snap.Count != s.Count() {
		t.Fatalf("snapshot mismatch: %+v", snap)
	}
	_ = time.Microsecond
}
