// Command bench runs the repository's hot-path micro-benchmarks
// (bench_test.go and the per-package benches under internal/) with
// -benchmem, parses the results, and either writes them as a JSON
// baseline or compares them against a committed one.
//
// Refresh the committed baseline (-scale adds the heavy 1M-link and
// fleet-scaling benches, which belong in the baseline but not in CI
// smoke):
//
//	go run ./cmd/bench -benchtime 100x -count 3 -scale -out BENCH_baseline.json
//
// CI regression smoke (fails on ns/op > factor× baseline or on
// allocation-count regressions, which are deterministic):
//
//	GOMAXPROCS=1 go run ./cmd/bench -benchtime 100x -count 3 -ns-factor 4 -compare BENCH_baseline.json
//
// The ns/op threshold is deliberately generous (default 2×, 4× in CI):
// at smoke iteration counts timing is noisy and runners vary, so the
// guard is against order-of-magnitude regressions; allocation counts
// are the precise signal.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// microBenches is the default benchmark set: the hot-path micro
// benchmarks, not the end-to-end experiment benches (E1–E15), which are
// too slow for a smoke run.
const microBenches = "^(BenchmarkMeasure64Links|BenchmarkMeasure64LinksDense|" +
	"BenchmarkIncrementalMeasure64|BenchmarkSINRSuccesses16Tx|" +
	"BenchmarkAffectanceMatrixBuild64|" +
	"BenchmarkStaticDecay|BenchmarkStaticSpread|BenchmarkPowerControlSolve8|" +
	"BenchmarkDynamicProtocolSlot|BenchmarkDynamicProtocolSlotTraced|" +
	"BenchmarkPlanSweep64|BenchmarkSlotResolve100k|BenchmarkSlotResolveDelta100k|" +
	"BenchmarkSlotResolveSpatial16k|BenchmarkStochasticStep16k|" +
	"BenchmarkJournalAppend|BenchmarkCheckpoint100k|" +
	"BenchmarkSpatialUnit16k|BenchmarkCompileIndexed4k)$"

// scaleBenches are the heavy benchmarks included only when -scale is
// set: a million-link model takes seconds to construct, which is fine
// for a baseline refresh but not for the CI regression smoke.
const scaleBenches = "BenchmarkSlotResolve1M|BenchmarkSlotResolve1MParallel|BenchmarkFleetSweep"

// Entry is one benchmark's measurement.
type Entry struct {
	Iters       int64   `json:"iters"`
	NsPerOp     float64 `json:"nsPerOp"`
	BytesPerOp  int64   `json:"bytesPerOp"`
	AllocsPerOp int64   `json:"allocsPerOp"`
}

// Baseline is the BENCH_baseline.json document.
type Baseline struct {
	GoVersion  string           `json:"goVersion"`
	GOOS       string           `json:"goos"`
	GOARCH     string           `json:"goarch"`
	Benchtime  string           `json:"benchtime"`
	Benchmarks map[string]Entry `json:"benchmarks"`
}

var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([\d.]+) ns/op`)

// memStats is matched separately from benchLine: benchmarks reporting
// custom metrics (units/s) print them between ns/op and the -benchmem
// pair, so the allocation columns are not at a fixed offset.
var memStats = regexp.MustCompile(`\s(\d+) B/op\s+(\d+) allocs/op`)

func main() {
	var (
		bench       = flag.String("bench", microBenches, "benchmark regex passed to go test -bench")
		benchtime   = flag.String("benchtime", "100x", "go test -benchtime value (fixed -Nx counts keep allocation numbers deterministic)")
		count       = flag.Int("count", 1, "go test -count value; the minimum ns/op and maximum allocs/op across repetitions are kept, so -count 3 suppresses scheduler-preemption spikes")
		dir         = flag.String("dir", "./...", "package pattern to benchmark")
		out         = flag.String("out", "", "write the results to this JSON file")
		compare     = flag.String("compare", "", "compare the results against this JSON baseline and exit non-zero on regressions")
		nsFactor    = flag.Float64("ns-factor", 2.0, "fail when ns/op exceeds baseline by this factor")
		allocFactor = flag.Float64("alloc-factor", 1.5, "fail when allocs/op exceeds baseline by this factor (rounded up) plus the slack; a zero-alloc baseline must stay zero-alloc")
		allocSlack  = flag.Int64("alloc-slack", 0, "absolute allocs/op slack added to the factor threshold")
		allowMiss   = flag.String("allow-missing", "^("+scaleBenches+")(/.*)?$", "baseline entries matching this regex may be absent from the run without failing the comparison (the scale benches are baseline-only, too heavy for CI smoke)")
		scale       = flag.Bool("scale", false, "also run the heavy scale benchmarks ("+scaleBenches+"); use when regenerating the baseline")
	)
	flag.Parse()

	if *scale && *bench == microBenches {
		*bench = strings.TrimSuffix(microBenches, ")$") + "|" + scaleBenches + ")$"
	}

	entries, err := runBenchmarks(*dir, *bench, *benchtime, *count)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if len(entries) == 0 {
		fmt.Fprintln(os.Stderr, "bench: no benchmarks matched", *bench)
		os.Exit(1)
	}
	printEntries(entries)

	if *out != "" {
		b := Baseline{
			GoVersion:  runtime.Version(),
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
			Benchtime:  *benchtime,
			Benchmarks: entries,
		}
		data, err := json.MarshalIndent(b, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		fmt.Println("wrote", *out)
	}

	if *compare != "" {
		if failures := compareBaseline(*compare, entries, *nsFactor, *allocFactor, *allocSlack, *allowMiss); len(failures) > 0 {
			for _, f := range failures {
				fmt.Fprintln(os.Stderr, "REGRESSION:", f)
			}
			os.Exit(1)
		}
		fmt.Println("no regressions against", *compare)
	}
}

func runBenchmarks(dir, bench, benchtime string, count int) (map[string]Entry, error) {
	if count < 1 {
		count = 1
	}
	cmd := exec.Command("go", "test", "-run", "^$", "-bench", bench, "-benchmem",
		"-benchtime", benchtime, "-count", strconv.Itoa(count), dir)
	cmd.Stderr = os.Stderr
	outBytes, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go test -bench: %w\n%s", err, outBytes)
	}
	entries := map[string]Entry{}
	for _, line := range strings.Split(string(outBytes), "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		iters, _ := strconv.ParseInt(m[2], 10, 64)
		ns, _ := strconv.ParseFloat(m[3], 64)
		var bytesOp, allocsOp int64
		if mm := memStats.FindStringSubmatch(line); mm != nil {
			bytesOp, _ = strconv.ParseInt(mm[1], 10, 64)
			allocsOp, _ = strconv.ParseInt(mm[2], 10, 64)
		}
		e := Entry{Iters: iters, NsPerOp: ns, BytesPerOp: bytesOp, AllocsPerOp: allocsOp}
		// With -count > 1 each benchmark reports several lines: keep the
		// minimum timing (robust against scheduler preemption) and the
		// maximum allocation counts (conservative for the regression gate).
		if prev, ok := entries[m[1]]; ok {
			if prev.NsPerOp < e.NsPerOp {
				e.NsPerOp, e.Iters = prev.NsPerOp, prev.Iters
			}
			e.BytesPerOp = max(e.BytesPerOp, prev.BytesPerOp)
			e.AllocsPerOp = max(e.AllocsPerOp, prev.AllocsPerOp)
		}
		entries[m[1]] = e
	}
	return entries, nil
}

func printEntries(entries map[string]Entry) {
	names := make([]string, 0, len(entries))
	for name := range entries {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		e := entries[name]
		fmt.Printf("%-36s %12.1f ns/op %8d B/op %6d allocs/op\n", name, e.NsPerOp, e.BytesPerOp, e.AllocsPerOp)
	}
}

func compareBaseline(path string, entries map[string]Entry, nsFactor, allocFactor float64, allocSlack int64, allowMiss string) []string {
	data, err := os.ReadFile(path)
	if err != nil {
		return []string{fmt.Sprintf("reading baseline: %v", err)}
	}
	var base Baseline
	if err := json.Unmarshal(data, &base); err != nil {
		return []string{fmt.Sprintf("parsing baseline: %v", err)}
	}
	var missOK *regexp.Regexp
	if allowMiss != "" {
		missOK, err = regexp.Compile(allowMiss)
		if err != nil {
			return []string{fmt.Sprintf("parsing -allow-missing: %v", err)}
		}
	}
	var failures []string
	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		want := base.Benchmarks[name]
		got, ok := entries[name]
		if !ok {
			if missOK != nil && missOK.MatchString(name) {
				continue
			}
			failures = append(failures, fmt.Sprintf("%s: present in baseline but did not run (renamed or deleted?)", name))
			continue
		}
		if limit := want.NsPerOp * nsFactor; got.NsPerOp > limit {
			failures = append(failures, fmt.Sprintf("%s: %.1f ns/op exceeds %.1f (baseline %.1f × %.1f)",
				name, got.NsPerOp, limit, want.NsPerOp, nsFactor))
		}
		// A zero-alloc baseline must stay zero-alloc (with zero slack):
		// ceil rounding means the factor never excuses the first
		// reintroduced allocation on a clean benchmark.
		if limit := int64(math.Ceil(float64(want.AllocsPerOp)*allocFactor)) + allocSlack; got.AllocsPerOp > limit {
			failures = append(failures, fmt.Sprintf("%s: %d allocs/op exceeds %d (baseline %d × %.1f + %d)",
				name, got.AllocsPerOp, limit, want.AllocsPerOp, allocFactor, allocSlack))
		}
	}
	return failures
}
