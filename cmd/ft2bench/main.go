// Command ft2bench is the paper experiments plus the CI perf gates: it
// regenerates the tables and figures of the FT2 paper's evaluation section
// on the Go reproduction, each addressed by its paper id, and runs the
// paired performance gates CI fails on. Throughput and overhead numbers come
// from the repository benchmark (bench/run.sh), not from here.
//
//	ft2bench -exp fig13                # the main comparison
//	ft2bench -exp all -out results/    # everything, one .txt + .csv per id
//	ft2bench -list                     # what exists
//	ft2bench -perfguard                # the CI gates, median ± spread each
//
// Sizes default to the Default() parameters; -trials/-inputs/-profile
// override them (the paper's own scale is 50 inputs × 500 trials per cell).
//
// Long campaigns are interruptible and resumable: -journal checkpoints
// every classified trial to an append-only JSONL file, SIGINT/SIGTERM (or
// the -timeout deadline) stops the run gracefully and prints the partial
// tables, and re-running with -resume replays the journal and executes
// only the missing trials. -trial-timeout guards against hung inferences.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"ft2/internal/cliutil"
	"ft2/internal/experiments"
	"ft2/internal/report"
	"ft2/internal/tensor"
)

func main() {
	exp := flag.String("exp", "", "experiment id (fig2..fig16, table1, table2, ablation-*) or 'all'")
	list := flag.Bool("list", false, "list available experiments")
	outDir := flag.String("out", "", "directory for .txt and .csv outputs (default stdout only)")
	trials := flag.Int("trials", 0, "override trials per cell")
	inputs := flag.Int("inputs", 0, "override dataset inputs")
	profile := flag.Int("profile", 0, "override profiling-split size")
	seed := flag.Int64("seed", 42, "base seed")
	quick := flag.Bool("quick", false, "use the quick (smoke-test) sizes")
	perfguard := flag.Bool("perfguard", false, "run the CI performance gates (P=4 decode vs P=1, warm vs cold prefix serving, serving stack vs serial Generate) and exit")
	cf := cliutil.RegisterCampaign(flag.CommandLine)
	flag.Parse()

	if *perfguard {
		tensor.AutoCalibrate()
		if err := runPerfGuard(*seed); err != nil {
			fmt.Fprintf(os.Stderr, "ft2bench: perfguard FAILED: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("ft2bench: perfguard passed")
		return
	}

	if *list {
		for _, d := range experiments.Registry() {
			fmt.Printf("%-18s %s\n", d.ID, d.Description)
		}
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "ft2bench: -exp required (or -list)")
		os.Exit(2)
	}
	if err := cf.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "ft2bench:", err)
		os.Exit(2)
	}

	p := experiments.Default()
	if *quick {
		p = experiments.Quick()
	}
	if *trials > 0 {
		p.Trials = *trials
	}
	if *inputs > 0 {
		p.Inputs = *inputs
	}
	if *profile > 0 {
		p.ProfileInputs = *profile
	}
	p.Seed = *seed

	// SIGINT/SIGTERM cancel the run context: in-flight campaigns stop at
	// the next trial boundary (or mid-inference via the watchdog hook),
	// partial tables are printed, and the journal — flushed on every
	// write — is closed cleanly. A second signal kills the process.
	ctx, stop := cf.Context()
	defer stop()

	j, err := cf.OpenJournal()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ft2bench:", err)
		os.Exit(1)
	}
	if j != nil {
		defer j.Close()
	}
	cf.ApplyParams(&p, j)

	var drivers []experiments.Driver
	if *exp == "all" {
		drivers = experiments.Registry()
	} else {
		d, err := experiments.ByID(*exp)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		drivers = []experiments.Driver{d}
	}

	for _, d := range drivers {
		start := time.Now()
		tb, err := d.Run(ctx, p)
		interrupted := cliutil.Interrupted(err)
		if err != nil && !interrupted {
			fmt.Fprintf(os.Stderr, "ft2bench: %s failed: %v\n", d.ID, err)
			os.Exit(1)
		}
		if tb == nil {
			fmt.Fprintf(os.Stderr, "ft2bench: %s interrupted before any results (%v)\n", d.ID, err)
			os.Exit(130)
		}
		fmt.Printf("=== %s (%s) — %.1fs ===\n", d.ID, d.Description, time.Since(start).Seconds())
		fmt.Println(tb.String())
		if d.ID == "fig13" && !interrupted {
			if summary, err := experiments.SummarizeFig13(tb); err == nil {
				fmt.Println(summary.Table().String())
				if *outDir != "" {
					if err := writeOutputs(*outDir, "fig13-summary", summary.Table()); err != nil {
						fmt.Fprintln(os.Stderr, err)
						os.Exit(1)
					}
				}
			}
		}
		if *outDir != "" {
			if err := writeOutputs(*outDir, d.ID, tb); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		if interrupted {
			os.Exit(cf.InterruptNotice("ft2bench", err))
		}
	}
}

func writeOutputs(dir, id string, tb *report.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, id+".txt"), []byte(tb.String()), 0o644); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, id+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	return tb.CSV(f)
}
