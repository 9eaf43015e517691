package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// verdict judges one end-to-end metric on one workload: the change's runs
// against the parent's, both given in the metric's own unit.
//
//	ok          the change's median is no worse than the parent's by more
//	            than the bound, and the parent's own runs repeat within it
//	worse       worse by more than the bound, and the two interquartile
//	            ranges do not overlap
//	unresolved  worse by more than the bound but the ranges overlap, or
//	            within the bound while the parent's spread exceeds it (then
//	            "unchanged" is not shown) — unless every run of the change
//	            reads better than every run of the parent
func verdict(parent, change []float64, lowerIsBetter bool, bound float64) (v string, worseBy float64) {
	p, c := summarize(parent), summarize(change)
	if p.N == 0 || c.N == 0 || p.Median == 0 {
		return "unresolved", 0
	}
	worseBy = (c.Median - p.Median) / p.Median
	if !lowerIsBetter {
		worseBy = -worseBy
	}
	if worseBy > bound {
		if c.Q1 <= p.Q3 && p.Q1 <= c.Q3 {
			return "unresolved", worseBy
		}
		return "worse", worseBy
	}
	allBetter := c.Max < p.Min
	if !lowerIsBetter {
		allBetter = c.Min > p.Max
	}
	if p.spread() > bound && !allBetter {
		return "unresolved", worseBy
	}
	return "ok", worseBy
}

// readRecords loads an -out file: one record per line.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		rec := record{result: &result{}} // encoding/json will not allocate the embedded pointer itself
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if rec.Schema != 1 {
			return nil, fmt.Errorf("%s: not a bench record (schema %d)", path, rec.Schema)
		}
		out = append(out, rec)
	}
	return out, sc.Err()
}

// values collects one metric's values over a workload's runs of one kind.
func values(recs []record, workload string, trace bool, metric string) []float64 {
	var out []float64
	for _, r := range recs {
		if r.Workload == workload && r.Trace == trace {
			if m, ok := r.Metrics[metric]; ok {
				out = append(out, m.Value)
			}
		}
	}
	return out
}

// compareFiles prints, for every end-to-end metric on every workload present
// in both files, the parent's and the change's median and spread, the
// relative change, the bound and the verdict; then, for traced runs of the
// same seed in both files, whether every exact per-layer count is identical.
// It reports whether anything is worse (or an exact count differs).
func compareFiles(w io.Writer, parentPath, changePath string) (bool, error) {
	parent, err := readRecords(parentPath)
	if err != nil {
		return false, err
	}
	change, err := readRecords(changePath)
	if err != nil {
		return false, err
	}
	anyWorse := false
	fmt.Fprintf(w, "%-14s %-17s %4s %12s %7s %4s %12s %7s %8s %6s  %s\n",
		"workload", "metric", "n", "parent", "spread", "n", "change", "spread", "worse by", "bound", "verdict")
	for _, wl := range allWorkloads {
		for _, m := range endToEnd {
			p, c := values(parent, wl, false, m.Name), values(change, wl, false, m.Name)
			if len(p) == 0 || len(c) == 0 {
				continue
			}
			v, by := verdict(p, c, m.Better == "lower", m.Bound)
			ps, cs := summarize(p), summarize(c)
			fmt.Fprintf(w, "%-14s %-17s %4d %12.5g %6.1f%% %4d %12.5g %6.1f%% %+7.1f%% %5.0f%%  %s\n",
				wl, m.Name, ps.N, ps.Median, ps.spread()*100, cs.N, cs.Median, cs.spread()*100, by*100, m.Bound*100, v)
			anyWorse = anyWorse || v == "worse"
		}
	}
	for _, pr := range parent {
		if !pr.Trace {
			continue
		}
		for _, cr := range change {
			if !cr.Trace || cr.Workload != pr.Workload || cr.Seed != pr.Seed {
				continue
			}
			differ := 0
			for _, m := range perLayer {
				if m.Exact && pr.Metrics[m.Name].Value != cr.Metrics[m.Name].Value {
					differ++
					fmt.Fprintf(w, "%-14s seed %d exact count %s: parent %v, change %v\n",
						pr.Workload, pr.Seed, m.Name, pr.Metrics[m.Name].Value, cr.Metrics[m.Name].Value)
				}
			}
			if differ == 0 {
				fmt.Fprintf(w, "%-14s seed %d exact per-layer counts identical\n", pr.Workload, pr.Seed)
			}
			anyWorse = anyWorse || differ > 0
			break
		}
	}
	return anyWorse, nil
}
