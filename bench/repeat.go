package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// runRepeat is the repeatability check: it runs every workload `sets` times
// back to back, each run a fresh process of this binary (end-to-end run, then
// traced pass), and prints for every end-to-end metric the relative
// difference between the first set and each later one beside the metric's
// bound. It returns 1 if a difference exceeds its bound, a run fails, or one
// of the counts that must repeat exactly does not.
func runRepeat(sets int, seed int64, seconds float64) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	type result struct {
		Correct bool `json:"correct"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	one := func(w string, set, trace int) (result, error) {
		cmd := exec.Command(self, "-workload", w, "-seed", strconv.FormatInt(seed+int64(set), 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return result{}, fmt.Errorf("%s set %d trace %d: %w", w, set, trace, err)
		}
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		var res result
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			return res, fmt.Errorf("%s set %d: last line is not a result: %w", w, set, err)
		}
		return res, nil
	}

	// exact are per-layer values that are counts or identities, not timings.
	exact := []string{"campaign.sdc_count.none", "campaign.sdc_count.ft2", "model.allocs_per_step"}
	bad := 0
	fmt.Printf("%-20s %-16s %14s %14s %8s %6s\n", "workload", "metric", "set 1", "set n", "diff", "bound")
	for _, w := range workloads {
		var first, firstLayers result
		for set := 0; set < sets; set++ {
			e2e, err := one(w.name, set, 0)
			if err == nil && !e2e.Correct {
				err = fmt.Errorf("%s set %d: incorrect outputs", w.name, set)
			}
			layers, lerr := one(w.name, set, 1)
			if err == nil {
				err = lerr
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				bad++
				continue
			}
			if seg := layers.Metrics["model.seg_sum_over_step"].Value; math.Abs(seg-1) > 0.05 {
				fmt.Printf("%-20s model.seg_us.* sum to %.3f of the decode step (must be within 5%%)\n", w.name, seg)
				bad++
			}
			if set == 0 {
				first, firstLayers = e2e, layers
				continue
			}
			for _, d := range endToEnd {
				a, b := first.Metrics[d.name].Value, e2e.Metrics[d.name].Value
				diff := (b - a) / a
				verdict := ""
				if math.Abs(diff) > d.bound {
					verdict = "  VIOLATION"
					bad++
				}
				fmt.Printf("%-20s %-16s %14.5f %14.5f %+7.1f%% %5.0f%%%s\n", w.name, d.name, a, b, 100*diff, 100*d.bound, verdict)
			}
			for _, name := range exact {
				if a, b := firstLayers.Metrics[name].Value, layers.Metrics[name].Value; a != b {
					fmt.Printf("%-20s %s must repeat exactly: %v then %v\n", w.name, name, a, b)
					bad++
				}
			}
		}
	}
	if bad > 0 {
		fmt.Printf("%d violations\n", bad)
		return 1
	}
	fmt.Println("every metric repeated within its bound")
	return 0
}
