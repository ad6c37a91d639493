package main

import (
	"fmt"
	"sort"

	"eventspace"
	"eventspace/internal/analysis"
)

// checkLive gates a monitored live run on its outputs. lb-archive: the
// live load-balance verdicts must equal ReplayLastArrival over the
// archive, and the live alerts must equal RegenerateAlerts. statsm-lan:
// every round of every wrapper must have been analysed, and every
// wrapper's statistics must be sane. A failed check fails the pair's
// rounds.
func checkLive(spec liveSpec, mon *sysRun, rep *report, tr *tracer) error {
	if !spec.archive {
		rep.check("statsm-analysed-every-round", mon.statsRounds == mon.statsWant, mon.rounds,
			"rounds analysed %d of %d", mon.statsRounds, mon.statsWant)
		rep.check("statsm-wrapper-stats-sane", mon.statsBad == "", mon.rounds, "%s", orOK(mon.statsBad, "every wrapper"))
		return nil
	}
	r, err := eventspace.OpenArchive(mon.dir)
	if err != nil {
		return err
	}
	defer r.Close()
	infos, err := eventspace.ReadArchiveMeta(mon.dir)
	if err != nil {
		return err
	}
	var replay *eventspace.LastArrivalReplay
	if err := tr.do("check.replay_last_arrival", 0, func(int64) (err error) {
		replay, err = eventspace.ReplayLastArrival(r, infos, eventspace.ArchiveQuery{})
		return err
	}); err != nil {
		return err
	}
	diff := weightedDiff(mon.weighted, replay.Weighted())
	rep.check("live-verdicts-equal-replay", diff == "", mon.rounds, "%s", orOK(diff, fmt.Sprintf("%d verdicts", mon.weighted.Total())))

	stmt, err := eventspace.ParseQuery(alertStmt)
	if err != nil {
		return err
	}
	var regen []eventspace.AlertTuple
	if err := tr.do("check.regenerate_alerts", 0, func(int64) (err error) {
		regen, err = eventspace.RegenerateAlerts(r, []*eventspace.QueryStmt{stmt}, len(infos))
		return err
	}); err != nil {
		return err
	}
	same := len(regen) == len(mon.alerts)
	for i := 0; same && i < len(regen); i++ {
		same = regen[i] == mon.alerts[i]
	}
	rep.check("live-alerts-equal-replay", same, mon.rounds, "live %d alerts, regenerated %d", len(mon.alerts), len(regen))
	return nil
}

// badWrapperStats checks statsm's front-end tree: every wrapper of the
// monitored tree has a total-latency record over samples, ordered
// min <= median <= max and min <= mean <= max, with a non-zero max. It
// returns "" when all records pass.
func badWrapperStats(at *eventspace.AnalysisTree, tree *eventspace.Tree) string {
	for _, n := range tree.Nodes {
		rec, ok := at.Get(n.CollectiveEC.ID(), analysis.KindTotal)
		if !ok || rec.Count == 0 {
			return fmt.Sprintf("wrapper %s has no statistics", n.Name)
		}
		if !(rec.Min <= rec.Median && rec.Median <= rec.Max && rec.Min <= rec.Mean && rec.Mean <= rec.Max && rec.Max > 0) {
			return fmt.Sprintf("wrapper %s: %+v", n.Name, rec)
		}
	}
	return ""
}

// weightedDiff compares two last-arrival weighted trees node by node
// and returns "" when they are equal.
func weightedDiff(a, b *eventspace.WeightedTree) string {
	an, bn := a.Nodes(), b.Nodes()
	sort.Strings(an)
	sort.Strings(bn)
	if fmt.Sprint(an) != fmt.Sprint(bn) {
		return fmt.Sprintf("nodes %v vs %v", an, bn)
	}
	for _, n := range an {
		ac, bc := a.Counts(n), b.Counts(n)
		if len(ac) != len(bc) {
			return fmt.Sprintf("node %s: %v vs %v", n, ac, bc)
		}
		for c, v := range ac {
			if bc[c] != v {
				return fmt.Sprintf("node %s: %v vs %v", n, ac, bc)
			}
		}
	}
	return ""
}

func orOK(diff, ok string) string {
	if diff != "" {
		return diff
	}
	return ok
}
