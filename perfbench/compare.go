package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
)

// compareFiles prints, per workload and end-to-end metric, the median
// of the old and the new results and the change between them, against
// the bound BENCHMARK.json fixes. Results from different machines are
// not compared: it prints a notice instead.
func compareFiles(oldPath, newPath string) int {
	olds, err := readResults(oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	news, err := readResults(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if len(olds) == 0 || len(news) == 0 {
		fmt.Fprintln(os.Stderr, "perfbench: a results file holds no untraced results")
		return 2
	}
	want, secs := olds[0].Meta.machine(), olds[0].Seconds
	for _, r := range append(olds, news...) {
		if got := r.Meta.machine(); got != want {
			fmt.Printf("notice: not comparing: results come from different machines (%+v vs %+v)\n", want, got)
			return 0
		}
		if r.Seconds != secs {
			fmt.Printf("notice: not comparing: results measured over different --seconds (%g vs %g)\n", secs, r.Seconds)
			return 0
		}
	}
	bounds := readBounds("BENCHMARK.json")
	fmt.Printf("%-13s %-16s %12s %12s %8s %6s\n", "workload", "metric", "old median", "new median", "change", "bound")
	for _, w := range workloads {
		for _, d := range endToEnd {
			a, b := metricValues(olds, w, d.name), metricValues(news, w, d.name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			ma, mb := median(a), median(b)
			change := 0.0
			if ma != 0 {
				change = (mb - ma) / ma
			}
			bound := "-"
			if x, ok := bounds[d.name]; ok {
				bound = fmt.Sprintf("%.0f%%", 100*x)
			}
			fmt.Printf("%-13s %-16s %12.5g %12.5g %+7.1f%% %6s  (%d vs %d runs)\n", w, d.name, ma, mb, 100*change, bound, len(a), len(b))
		}
	}
	return 0
}

func readResults(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Trace == 0 {
			out = append(out, r)
		}
	}
	return out, sc.Err()
}

func metricValues(rs []result, w, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok && r.Workload == w {
			out = append(out, m.Value)
		}
	}
	return out
}

// readBounds returns each end-to-end metric's bound from the
// benchmark definition, or nothing if it cannot be read.
func readBounds(path string) map[string]float64 {
	var def struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	out := map[string]float64{}
	b, err := os.ReadFile(path)
	if err != nil || json.Unmarshal(b, &def) != nil {
		return out
	}
	for _, m := range def.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out
}
