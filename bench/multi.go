package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

// Every workload runs in a process of its own, so no run inherits another's
// heap, caches or connections. child re-executes this binary for one run and
// parses the result line.
func child(workload string, seed int64, seconds int, traced bool, echo bool) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", trace)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	report, res, err := splitOutput(stdout)
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	if echo {
		os.Stdout.Write(report)
	}
	return res, nil
}

// splitOutput cuts a run's standard output into the lines for people and the
// result object on the last line. A run that failed an op is an error: no
// mode of this program has a use for its timings.
func splitOutput(stdout []byte) (report []byte, res *result, err error) {
	stdout = bytes.TrimSpace(stdout)
	cut := bytes.LastIndexByte(stdout, '\n') + 1
	res = new(result)
	if err := json.Unmarshal(stdout[cut:], res); err != nil {
		return nil, nil, fmt.Errorf("result line: %w", err)
	}
	if res.Failed > 0 {
		return nil, nil, fmt.Errorf("%d of %d ops failed", res.Failed, res.Attempted)
	}
	return stdout[:cut], res, nil
}

// runAll prints the end-to-end metrics of every workload, then the per-layer
// table from the traced runs.
func runAll(cfg runConfig) error {
	layers := map[string]*result{}
	for _, w := range workloadNames {
		if _, err := child(w, cfg.seed, cfg.seconds, false, true); err != nil {
			return err
		}
	}
	for _, w := range workloadNames {
		res, err := child(w, cfg.seed, cfg.seconds, true, false)
		if err != nil {
			return err
		}
		layers[w] = res
	}
	printLayerTable(os.Stdout, layers)
	return nil
}

// printLayerTable sets the traced runs side by side: one row per layer
// metric, one column per workload.
func printLayerTable(out io.Writer, layers map[string]*result) {
	fmt.Fprintf(out, "\nper-layer metrics, traced runs (spans in bench/out/trace-<workload>.jsonl)\n")
	fmt.Fprintf(out, "  %-34s %-6s", "metric", "unit")
	for _, w := range workloadNames {
		fmt.Fprintf(out, " %12s", w)
	}
	fmt.Fprintln(out)
	for _, d := range perLayer {
		fmt.Fprintf(out, "  %-34s %-6s", d.name, d.unit)
		for _, w := range workloadNames {
			fmt.Fprintf(out, " %12.4f", layers[w].Metrics[d.name].Value)
		}
		fmt.Fprintln(out)
	}
	fmt.Fprintf(out, "  %-34s %-6s", "ops traced", "count")
	for _, w := range workloadNames {
		fmt.Fprintf(out, " %12d", layers[w].Attempted)
	}
	fmt.Fprintln(out)
}

// contract is BENCHMARK.json.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readContract(root string) (*contract, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &c, nil
}

// collect runs the untraced benchmark once per seed and gathers each
// end-to-end metric's values.
func collect(workload string, seeds []int64, seconds int) (map[string][]float64, error) {
	values := map[string][]float64{}
	for _, seed := range seeds {
		res, err := child(workload, seed, seconds, false, false)
		if err != nil {
			return nil, err
		}
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
		}
		fmt.Fprintf(os.Stderr, "  %s seed %d done\n", workload, seed)
	}
	return values, nil
}

// aaCheck runs two interleaved sets of three runs of every workload on this
// one binary and fails if any end-to-end metric's set medians differ by more
// than half its bound.
func aaCheck(root string, seconds int) error {
	c, err := readContract(root)
	if err != nil {
		return err
	}
	bad := 0
	fmt.Printf("A/A: 2 sets x 3 runs per workload, same binary; limit = half the bound\n")
	fmt.Printf("  %-8s %-18s %12s %12s %8s %8s\n", "workload", "metric", "median A", "median B", "diff %", "limit %")
	for _, w := range workloadNames {
		// Interleaved (A, B, A, B, ...) so slow drift of the machine lands on
		// both sets alike; seeds 1, 3, 5 against 2, 4, 6.
		var sets [2]map[string][]float64
		for seed := int64(1); seed <= 6; seed++ {
			got, err := collect(w, []int64{seed}, seconds)
			if err != nil {
				return err
			}
			set := &sets[(seed-1)%2]
			if *set == nil {
				*set = map[string][]float64{}
			}
			for k, v := range got {
				(*set)[k] = append((*set)[k], v...)
			}
		}
		bad += aaCompare(os.Stdout, c, w, sets[0], sets[1])
	}
	if bad > 0 {
		return fmt.Errorf("A/A: %d metric(s) moved by more than half their bound on identical code", bad)
	}
	fmt.Println("A/A passed")
	return nil
}

// aaCompare prints one workload's set medians side by side and returns how
// many end-to-end metrics differ by more than half their bound.
func aaCompare(out io.Writer, c *contract, workload string, a, b map[string][]float64) (bad int) {
	for _, m := range c.EndToEnd {
		ma, mb := median(a[m.Name]), median(b[m.Name])
		diff := 100 * math.Abs(ma-mb) / ma
		flag := ""
		if diff > 100*m.Bound/2 {
			flag = "  <-- exceeds"
			bad++
		}
		fmt.Fprintf(out, "  %-8s %-18s %12.4f %12.4f %8.2f %8.2f%s\n", workload, m.Name, ma, mb, diff, 100*m.Bound/2, flag)
	}
	return bad
}

// spreadCheck prints, per workload and end-to-end metric, the median over n
// seeds and the interquartile distance as a share of it - the driver's
// acceptance statistic - against a third of the bound.
func spreadCheck(root string, seconds, n int) error {
	c, err := readContract(root)
	if err != nil {
		return err
	}
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	fmt.Printf("spread over %d seeds: (Q3-Q1)/median per end-to-end metric\n", n)
	fmt.Printf("  %-8s %-18s %12s %9s %9s\n", "workload", "metric", "median", "spread %", "bound/3 %")
	for _, w := range workloadNames {
		values, err := collect(w, seeds, seconds)
		if err != nil {
			return err
		}
		spreadReport(os.Stdout, c, w, values)
	}
	return nil
}

// spreadReport prints one workload's medians and quartile spreads and
// returns how many end-to-end metrics other than setup_s (which the driver
// exempts) spread wider than a third of their bound.
func spreadReport(out io.Writer, c *contract, workload string, values map[string][]float64) (wide int) {
	for _, m := range c.EndToEnd {
		q1, q2, q3 := quartiles(values[m.Name])
		flag := ""
		if m.Name != "setup_s" && (q3-q1)/q2 > m.Bound/3 {
			flag = "  <-- wide"
			wide++
		}
		fmt.Fprintf(out, "  %-8s %-18s %12.4f %9.2f %9.2f%s\n", workload, m.Name, q2, 100*(q3-q1)/q2, 100*m.Bound/3, flag)
	}
	return wide
}

// quartiles follows Python's statistics.quantiles(v, n=4), the exclusive
// method the driver uses.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4 // 1-based
		lo := int(pos)
		lo = min(max(lo, 1), len(s)-1)
		frac := pos - float64(lo)
		return s[lo-1] + frac*(s[lo]-s[lo-1])
	}
	return at(1), at(2), at(3)
}
