// Command perfbench is the dynschedd benchmark. It starts the daemon
// in this process (server.New + Handler over loopback), drives one
// workload from a single closed-loop client, checks every result
// against the library, and prints the workload's metrics.
//
//	perfbench --workload interactive|sweep|spatial|fleet --seed N --seconds S --trace 0|1
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// runs an untraced phase and a traced phase of S seconds each and
// prints the per-layer metrics. The last line of standard output is
// the JSON result. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"dynsched/api"
)

// setupRepeats is how many times a run builds and warms the daemon;
// setup_s is the median.
const setupRepeats = 9

// warmSeed seeds the fixed warm-up request list (never the timed one).
const warmSeed = 0x5eed

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: interactive, sweep, spatial or fleet")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 30, "length of the timed phase")
	trace := fs.Int("trace", 0, "1 = traced run with per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	// Set-up and the timed phase run on the budget's cores; the gate's
	// library replays afterwards use every core.
	runtime.GOMAXPROCS(w.procs())
	host, _ := json.Marshal(hostStamp(w))
	fmt.Printf("host %s\n", host)
	res, err := bench(context.Background(), w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric %s %s %.6g %s\n", w.name, n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench runs one workload: setup (repeated), the timed phase (and, when
// traced, a second, traced phase), then the correctness gate and the
// workload-shape guards.
func bench(ctx context.Context, w *workload, seed int64, dur time.Duration, traced bool) (*result, error) {
	var setups []float64
	var d *daemon
	for i := 0; i < setupRepeats; i++ {
		if d != nil {
			d.close()
		}
		runtime.GC() // no earlier garbage is collected on the clock
		t0 := time.Now()
		var err error
		if d, err = startDaemon(w, traced); err != nil {
			return nil, err
		}
		if err := warmUp(ctx, w, d.client); err != nil {
			d.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	s := newStream(w, seed)
	plain, err := runPhase(ctx, w, d, s, dur, false)
	if err != nil {
		d.close()
		return nil, err
	}
	phases := []*phase{plain}
	if traced {
		tp, err := runPhase(ctx, w, d, s, dur, true)
		if err != nil {
			d.close()
			return nil, err
		}
		phases = append(phases, tp)
	}
	d.close()
	runtime.GOMAXPROCS(runtime.NumCPU())

	g := &gate{w: w}
	for _, ph := range phases {
		g.checkPhase(ph)
	}
	rp := &replayer{w: w}
	if traced {
		rp.lay, rp.tr = &layers{}, &tracer{}
	}
	g.checkReplays(ctx, rp, coldRequests(w, seed, s.cold))

	res := &result{Attempted: g.attempted, Failed: g.failed, Metrics: map[string]metric{}}
	if traced {
		tp := phases[1]
		for i := range tp.outs {
			if o := &tp.outs[i]; o.err == nil && !o.refused {
				rp.tr.requestSpans(tp.reqs[i].spec, o)
			}
		}
		perLayer(res.Metrics, w, plain, tp, rp.lay, g)
		writeSpans(w, seed, rp.tr)
	} else {
		endToEnd(res.Metrics, w, plain, setups, g)
	}
	for n, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			g.violate("metric %s has no samples", n)
			m.Value = 0
			res.Metrics[n] = m
		}
	}
	res.Correct = g.failed == 0 && len(g.violations) == 0
	for _, v := range g.violations {
		fmt.Fprintln(os.Stderr, "perfbench: guard:", v)
	}
	return res, nil
}

// warmUp sends the workload's fixed warm-up request list and checks
// that it completed.
func warmUp(ctx context.Context, w *workload, c *client) error {
	s := newStream(w, warmSeed)
	for i := 0; i < w.warmCycles; i++ {
		for _, r := range s.cycle() {
			if w.warmSlots > 0 {
				r.sc.Sim.Slots = w.warmSlots
			}
			if o := c.do(ctx, r); o.err != nil || o.refused {
				return fmt.Errorf("warm-up request failed (refused=%v): %v", o.refused, o.err)
			}
		}
	}
	return nil
}

// phase is one timed closed-loop phase.
type phase struct {
	start      time.Time
	reqs       []ref
	outs       []outcome
	heapPeak   float64 // bytes
	mem0, mem1 runtime.MemStats
	// fleet0/fleet1 are the coordinator's fleet counters around the
	// phase (fleet workload only).
	fleet0, fleet1 api.FleetHealth
	calls          []routeCall // fleet route timings (traced phase only)
}

// ref is what a phase keeps of each request it sent.
type ref struct {
	spec         int // cold index, as in request
	repeat, plan bool
}

// runPhase runs whole request cycles until dur has passed.
func runPhase(ctx context.Context, w *workload, d *daemon, s *stream, dur time.Duration, traced bool) (*phase, error) {
	ph := &phase{}
	if w.fleet {
		if err := d.client.fleetHealth(ctx, &ph.fleet0); err != nil {
			return nil, err
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&ph.mem0)
	if traced && d.routes != nil {
		d.routes.on.Store(true)
	}
	heap := startHeapSampler(2 * time.Millisecond)
	ph.start = time.Now()
	for deadline := ph.start.Add(dur); time.Now().Before(deadline); {
		for _, r := range s.cycle() {
			ph.reqs = append(ph.reqs, ref{spec: r.spec, repeat: r.repeat, plan: r.isPlan()})
			ph.outs = append(ph.outs, d.client.do(ctx, r))
		}
	}
	ph.heapPeak = heap.finish()
	runtime.ReadMemStats(&ph.mem1)
	if traced && d.routes != nil {
		d.routes.on.Store(false)
		ph.calls = d.routes.take()
	}
	if w.fleet {
		if err := d.client.fleetHealth(ctx, &ph.fleet1); err != nil {
			return nil, err
		}
	}
	return ph, nil
}

// hostStamp describes the machine and runtime a run measured.
func hostStamp(w *workload) map[string]any {
	return map[string]any{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"kernel":     strings.TrimSpace(readOr("/proc/sys/kernel/osrelease", runtime.GOOS)),
		"workload":   w.name,
		"budget":     w.budget,
		"threads":    w.budget.threads(),
	}
}

func cpuModel() string {
	for _, line := range strings.Split(readOr("/proc/cpuinfo", ""), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func readOr(path, fallback string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return fallback
	}
	return string(data)
}

// writeSpans writes the traced run's spans as JSON lines under
// .bench_build/ and prints each span name's total and self time.
func writeSpans(w *workload, seed int64, tr *tracer) {
	self := selfTimes(tr.spans)
	type agg struct {
		n           int
		total, self time.Duration
	}
	by := map[string]*agg{}
	var names []string
	for _, s := range tr.spans {
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
			names = append(names, s.Name)
		}
		a.n++
		a.total += s.dur()
		a.self += self[s.ID]
	}
	sort.Strings(names)
	for _, n := range names {
		a := by[n]
		fmt.Fprintf(os.Stderr, "span %-22s n=%-6d total=%9.1fms self=%9.1fms\n", n, a.n, ms(a.total), ms(a.self))
	}
	path := fmt.Sprintf(".bench_build/spans-%s-%d.jsonl", w.name, seed)
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: spans not written:", err)
		return
	}
	enc := json.NewEncoder(f)
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			break
		}
	}
	if err := f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: spans not written:", err)
	}
}
