// Command experiments reproduces the paper's results: it runs the
// experiment suite E1–E15 (indexed by experiments.All in
// internal/experiments) and prints one table per experiment. Use
// -markdown to emit the tables as Markdown.
// -parallel N fans independent experiments across N workers; the tables
// are bit-identical to a serial run at the same seed.
//
// Usage:
//
//	experiments [-scale quick|full] [-seed N] [-only E5] [-markdown] [-parallel N]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"dynsched/internal/cli"
	"dynsched/internal/experiments"
)

func main() {
	scaleFlag := flag.String("scale", "full", "experiment scale: quick or full")
	seed := flag.Int64("seed", 1, "random seed")
	only := flag.String("only", "", "run a single experiment by ID (e.g. E3)")
	markdown := flag.Bool("markdown", false, "emit markdown instead of aligned text")
	csvDir := flag.String("csvdir", "", "also write one CSV file per experiment into this directory")
	parallel := flag.Int("parallel", 1, "worker count for concurrent experiments (0 = all CPUs, 1 = serial); output is ordered and bit-identical either way")
	flag.Parse()

	var scale experiments.Scale
	switch *scaleFlag {
	case "quick":
		scale = experiments.Quick
	case "full":
		scale = experiments.Full
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q (want quick or full)\n", *scaleFlag)
		os.Exit(2)
	}

	runners := experiments.All()
	if *only != "" {
		r, ok := experiments.ByID(*only)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *only)
			os.Exit(2)
		}
		runners = []experiments.Runner{r}
	}

	// Ctrl-C cancels the run context: running experiments stop at their
	// next simulation slot and unstarted ones are skipped.
	ctx, stop := cli.SignalContext()
	defer stop()
	results := experiments.RunAll(ctx, runners, scale, *seed, *parallel)

	failed := false
	for i, r := range runners {
		tbl, err := results[i].Table, results[i].Err
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s (%s) failed: %v\n", r.ID, r.Name, err)
			failed = true
			continue
		}
		if *markdown {
			fmt.Println(tbl.Markdown())
		} else {
			fmt.Println(tbl.Format())
			fmt.Printf("(%s in %v)\n\n", r.ID, results[i].Elapsed.Round(time.Millisecond))
		}
		if *csvDir != "" {
			name := filepath.Join(*csvDir, strings.ToLower(r.ID)+".csv")
			if err := os.WriteFile(name, []byte(tbl.CSV()), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "writing %s: %v\n", name, err)
				failed = true
			}
		}
	}
	if failed {
		os.Exit(1)
	}
}
