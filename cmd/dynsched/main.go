// Command dynsched runs a single configurable simulation of the dynamic
// scheduling protocol and prints the run's metrics. It is the
// exploration tool; cmd/experiments reproduces the paper's tables.
//
// Workloads are dynsched.Scenario values: compose one from flags, run a
// registered one by name (-scenario, see -list-scenarios), or load a
// JSON scenario document (-spec). With -reps R the scenario is
// replicated R times with derived sub-seeds on a -parallel N worker
// pool, and the across-replication statistics are printed; the numbers
// are bit-identical for every N. Ctrl-C cancels the run and prints the
// partial result.
//
// Sweeps run through the execution planner: a scenario with a sweep
// spec (from -spec, a registered scenario, or the -sweep flag) is
// decomposed into one unit per value — or per cross-product point for
// multi-axis grids — and the units run on the -parallel pool, with
// per-unit completion streamed to stderr. -sweep takes
// "axis=v1,v2,..." clauses separated by ";", e.g.
// "lambda=0.1,0.2;eps=0.25,0.5" for a 2×2 grid over lambda and eps.
//
// Examples:
//
//	dynsched -scenario sinr-stochastic
//	dynsched -scenario mac-adversarial -slots 100000 -json
//	dynsched -model identity -topology line -nodes 8 -hops 6 -lambda 0.4
//	dynsched -model sinr-uniform -links 16 -lambda 0.03 -adversary burst -window 64
//	dynsched -model sinr-linear -links 32 -lambda 0.06 -reps 16 -parallel 8
//	dynsched -scenario line-stochastic -slots 20000 -sweep "lambda=0.1,0.2,0.3,0.4"
//	dynsched -scenario line-stochastic -sweep "lambda=0.2,0.4;eps=0.25,0.5" -json
//	dynsched -spec myscenario.json -queue-csv queue.csv
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"dynsched"
	"dynsched/internal/cli"
	"dynsched/internal/par"
	"dynsched/internal/plot"
	"dynsched/internal/sim"
)

func main() {
	sc := flagDefaults()
	registerWorkloadFlags(flag.CommandLine, &sc)
	var (
		queueCSV      string
		reps          int
		scenarioName  string
		listScenarios bool
		asJSON        bool
	)
	flag.StringVar(&queueCSV, "queue-csv", "", "write the sampled queue-length series to this CSV file")
	flag.IntVar(&reps, "reps", 1, "independent replications with derived sub-seeds (1 = single run)")
	flag.StringVar(&scenarioName, "scenario", "", "run a registered scenario by name (see -list-scenarios)")
	flag.BoolVar(&listScenarios, "list-scenarios", false, "list registered scenarios and exit")
	flag.BoolVar(&asJSON, "json", false, "emit the result as JSON instead of the text report")
	spec := flag.String("spec", "", "JSON scenario document; overrides flag-composed workloads")
	sweep := flag.String("sweep", "", `sweep axes as "axis=v1,v2,...[;axis=...]" (lambda, eps, loss, slots); multiple axes form a grid`)
	flag.Parse()

	if listScenarios {
		for _, s := range dynsched.Scenarios() {
			fmt.Printf("%s\t%s\n", s.Name, s.Description)
		}
		return
	}

	sc, err := resolveScenario(flag.CommandLine, sc, scenarioName, *spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dynsched:", err)
		os.Exit(1)
	}
	if *sweep != "" {
		sw, err := parseSweepFlag(*sweep)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dynsched:", err)
			os.Exit(2)
		}
		sc.Sweep = sw
	}

	ctx, stop := cli.SignalContext()
	defer stop()

	switch {
	case len(sc.Sweep.Axes) > 0 || sc.Sweep.Axis != "":
		if reps > 1 || queueCSV != "" {
			fmt.Fprintln(os.Stderr, "dynsched: a sweep cannot be combined with -reps or -queue-csv")
			os.Exit(2)
		}
		err = runSweep(ctx, sc, asJSON)
	case reps > 1:
		if queueCSV != "" {
			fmt.Fprintln(os.Stderr, "dynsched: -queue-csv records a single run's series; it cannot be combined with -reps")
			os.Exit(2)
		}
		err = runReplicated(ctx, sc, reps, asJSON)
	default:
		err = run(ctx, sc, queueCSV, asJSON)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dynsched:", err)
		os.Exit(1)
	}
}

// parseSweepFlag parses the -sweep grammar: semicolon-separated
// "axis=v1,v2,..." clauses. A single clause is the legacy 1-D sweep;
// several form a grid.
func parseSweepFlag(s string) (dynsched.SweepSpec, error) {
	var axes []dynsched.SweepAxis
	for _, clause := range strings.Split(s, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		axis, list, ok := strings.Cut(clause, "=")
		if !ok {
			return dynsched.SweepSpec{}, fmt.Errorf("-sweep clause %q is not axis=v1,v2,...", clause)
		}
		var values []float64
		for _, f := range strings.Split(list, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				return dynsched.SweepSpec{}, fmt.Errorf("-sweep value %q on axis %q: %v", f, axis, err)
			}
			values = append(values, v)
		}
		axes = append(axes, dynsched.SweepAxis{Axis: strings.TrimSpace(axis), Values: values})
	}
	if len(axes) == 0 {
		return dynsched.SweepSpec{}, fmt.Errorf("-sweep %q declares no axes", s)
	}
	if len(axes) == 1 {
		return dynsched.SweepSpec{Axis: axes[0].Axis, Values: axes[0].Values}, nil
	}
	return dynsched.SweepSpec{Axes: axes}, nil
}

// runSweep decomposes the sweep into its execution plan, streams
// per-unit completion to stderr, and prints the point table (or the
// full PlanResult document with -json). Units that share a network
// build it once, through a model cache. Cancellation reports the
// completed points as a partial result.
func runSweep(ctx context.Context, sc dynsched.Scenario, asJSON bool) error {
	p, err := sc.Plan(1)
	if err != nil {
		return err
	}
	pr, runErr := p.Execute(ctx, dynsched.ExecOptions{
		Models: dynsched.NewModelCache(),
		OnUnit: func(u dynsched.PlanUnit, cached bool, err error, prog dynsched.PlanProgress) {
			if err != nil {
				return
			}
			fmt.Fprintf(os.Stderr, "dynsched: unit %d/%d done (%s)\n", prog.Done, prog.Total, u.Label())
		},
	})
	if runErr != nil && pr.UnitsDone == 0 {
		return runErr
	}
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "dynsched: %v — reporting the partial result\n", runErr)
	}
	if asJSON {
		if err := printJSON(pr); err != nil {
			return err
		}
		return runErr
	}
	fmt.Printf("scenario:    %s\n", sc.Name)
	fmt.Printf("plan:        %s, %d units (%d completed), hash %s\n", pr.Kind, pr.UnitsTotal, pr.UnitsDone, pr.Hash[:12])
	fmt.Printf("%-28s  %10s  %10s  %10s  %10s  %s\n", "unit", "injected", "delivered", "mean queue", "mean lat", "verdict")
	for _, pt := range pr.Points {
		label := fmt.Sprintf("%s=%v", pt.Axis, pt.Value)
		if len(pt.Coords) > 0 {
			parts := make([]string, len(pt.Coords))
			for i, c := range pt.Coords {
				parts[i] = fmt.Sprintf("%s=%v", c.Axis, c.Value)
			}
			label = strings.Join(parts, ",")
		}
		verdict := "stable"
		if !pt.Result.Verdict.Stable {
			verdict = "UNSTABLE"
		}
		fmt.Printf("%-28s  %10d  %10d  %10.1f  %10.1f  %s\n",
			label, pt.Result.Injected, pt.Result.Delivered,
			pt.Result.Queue.MeanV(), pt.Result.Latency.Mean(), verdict)
	}
	return runErr
}

// flagDefaults is the flag-composed workload before any flag is
// parsed: every workload flag's default.
func flagDefaults() dynsched.Scenario {
	return dynsched.NewScenario("cli", dynsched.WithDescription("composed from cmd/dynsched flags"))
}

// registerWorkloadFlags registers the workload flags onto fs, writing
// into sc. Each flag's default is sc's field, except -adversary, whose
// empty default stands for the stochastic pattern.
func registerWorkloadFlags(fs *flag.FlagSet, sc *dynsched.Scenario) {
	fs.StringVar(&sc.Model.Kind, "model", sc.Model.Kind, "interference model: identity, mac, sinr-linear, sinr-uniform, sinr-power-control")
	fs.StringVar(&sc.Network.Topology, "topology", sc.Network.Topology, "topology: line, grid, grid-convergecast, pairs, nested, mac, auto")
	fs.StringVar(&sc.Protocol.Alg, "alg", sc.Protocol.Alg, "static algorithm: full-parallel, decay, decay-adaptive, spread, densify, trivial, mac-decay, rrw, backoff, greedy-pc, auto")
	fs.IntVar(&sc.Network.Nodes, "nodes", sc.Network.Nodes, "node count (line/grid topologies)")
	fs.IntVar(&sc.Network.Links, "links", sc.Network.Links, "link count (pairs/nested/mac topologies)")
	fs.IntVar(&sc.Network.Hops, "hops", sc.Network.Hops, "path length for multi-hop workloads")
	fs.Float64Var(&sc.Traffic.Lambda, "lambda", sc.Traffic.Lambda, "injection rate in measure units per slot")
	fs.Float64Var(&sc.Protocol.Eps, "eps", sc.Protocol.Eps, "protocol headroom ε")
	fs.Int64Var(&sc.Sim.Seed, "seed", sc.Sim.Seed, "random seed")
	fs.StringVar(&sc.Traffic.Pattern, "adversary", "", "adversarial timing: burst, spread, sawtooth, rotating (empty = stochastic)")
	fs.IntVar(&sc.Traffic.Window, "window", sc.Traffic.Window, "adversary window length w")
	fs.Float64Var(&sc.Model.Loss, "loss", sc.Model.Loss, "independent per-transmission loss probability")
	fs.IntVar(&sc.Protocol.Frame, "frame", sc.Protocol.Frame, "frame length T override (0 = solve)")
	fs.BoolVar(&sc.Protocol.DisableDelays, "no-delays", sc.Protocol.DisableDelays, "disable the adversarial random initial delays (ablation)")
	fs.IntVar(&sc.Sim.ResolveParallelism, "resolve-parallelism", sc.Sim.ResolveParallelism, "intra-slot interference-resolution workers (0 = all CPUs, 1 = serial); results are bit-identical at every value")
	fs.Int64Var(&sc.Sim.Slots, "slots", sc.Sim.Slots, "slots to simulate")
	fs.IntVar(&sc.Sim.Parallel, "parallel", sc.Sim.Parallel, "worker count for -reps (0 = all CPUs, 1 = serial); results are bit-identical either way")
}

// resolveScenario builds the scenario to run: a registered one by name,
// a JSON document, or the flag-composed workload. Every workload flag
// set on fs overrides a named or file scenario.
func resolveScenario(fs *flag.FlagSet, fromFlags dynsched.Scenario, name, specPath string) (dynsched.Scenario, error) {
	if fromFlags.Traffic.Pattern == "" {
		fromFlags.Traffic.Pattern = "stochastic"
	}
	switch {
	case name != "" && specPath != "":
		return dynsched.Scenario{}, errors.New("-scenario and -spec are mutually exclusive")
	case name != "":
		sc, ok := dynsched.ScenarioByName(name)
		if !ok {
			return dynsched.Scenario{}, fmt.Errorf("unknown scenario %q (see -list-scenarios)", name)
		}
		return applyOverrides(fs, sc, fromFlags), nil
	case specPath != "":
		data, err := os.ReadFile(specPath)
		if err != nil {
			return dynsched.Scenario{}, err
		}
		sc, err := dynsched.ParseScenario(data)
		if err != nil {
			return dynsched.Scenario{}, err
		}
		return applyOverrides(fs, sc, fromFlags), nil
	default:
		return fromFlags, nil
	}
}

// applyOverrides lets every workload flag set on fs override a loaded
// scenario, so `-scenario X -slots 1000 -lambda 0.5` works as expected
// and no flag is silently ignored.
func applyOverrides(fs *flag.FlagSet, sc, fromFlags dynsched.Scenario) dynsched.Scenario {
	apply := map[string]func(){
		"model":               func() { sc.Model.Kind = fromFlags.Model.Kind },
		"loss":                func() { sc.Model.Loss = fromFlags.Model.Loss },
		"topology":            func() { sc.Network.Topology = fromFlags.Network.Topology },
		"nodes":               func() { sc.Network.Nodes = fromFlags.Network.Nodes },
		"links":               func() { sc.Network.Links = fromFlags.Network.Links },
		"hops":                func() { sc.Network.Hops = fromFlags.Network.Hops },
		"lambda":              func() { sc.Traffic.Lambda = fromFlags.Traffic.Lambda },
		"adversary":           func() { sc.Traffic.Pattern = fromFlags.Traffic.Pattern },
		"window":              func() { sc.Traffic.Window = fromFlags.Traffic.Window },
		"alg":                 func() { sc.Protocol.Alg = fromFlags.Protocol.Alg },
		"eps":                 func() { sc.Protocol.Eps = fromFlags.Protocol.Eps },
		"frame":               func() { sc.Protocol.Frame = fromFlags.Protocol.Frame },
		"no-delays":           func() { sc.Protocol.DisableDelays = fromFlags.Protocol.DisableDelays },
		"slots":               func() { sc.Sim.Slots = fromFlags.Sim.Slots },
		"seed":                func() { sc.Sim.Seed = fromFlags.Sim.Seed },
		"parallel":            func() { sc.Sim.Parallel = fromFlags.Sim.Parallel },
		"resolve-parallelism": func() { sc.Sim.ResolveParallelism = fromFlags.Sim.ResolveParallelism },
	}
	fs.Visit(func(f *flag.Flag) {
		if fn, ok := apply[f.Name]; ok {
			fn()
		}
	})
	return sc
}

// runReplicated fans `reps` independent runs across the worker pool and
// prints per-replication lines plus the across-replication summary.
// The replications and the header share one network through a model
// cache. Cancellation reports the completed replications as a partial
// result.
func runReplicated(ctx context.Context, sc dynsched.Scenario, reps int, asJSON bool) error {
	p, err := sc.Plan(reps)
	if err != nil {
		return err
	}
	mc := dynsched.NewModelCache()
	pr, runErr := p.Execute(ctx, dynsched.ExecOptions{Models: mc})
	var ue *dynsched.PlanUnitError
	if errors.As(runErr, &ue) {
		return ue.Err
	}
	res := pr.Replicate
	if runErr != nil {
		runErr = fmt.Errorf("dynsched: replicate cancelled with %d of %d replications completed: %w", len(res.Runs), reps, runErr)
		if len(res.Runs) == 0 {
			return runErr
		}
		fmt.Fprintf(os.Stderr, "dynsched: %v — reporting the partial result\n", runErr)
	}
	if asJSON {
		if err := printJSON(res); err != nil {
			return err
		}
		return runErr
	}
	// Compiled only for the header's protocol/process names.
	c, err := mc.Compile(sc)
	if err != nil {
		return err
	}
	fmt.Printf("scenario:    %s\n", sc.Name)
	fmt.Printf("protocol:    %s  injection: %s  λ=%.4f\n",
		c.Protocol.Name(), c.Process.Name(), sc.Traffic.Lambda)
	fmt.Printf("runs:        %d × %d slots, %d workers\n", reps, sc.Sim.Slots, par.Workers(sc.Sim.Parallel, reps))
	fmt.Printf("%4s  %20s  %10s  %10s  %10s  %s\n", "rep", "seed", "mean queue", "max queue", "mean lat", "verdict")
	for _, r := range res.Runs {
		verdict := "stable"
		if !r.Stable {
			verdict = "UNSTABLE"
		}
		fmt.Printf("%4d  %20d  %10.1f  %10.1f  %10.1f  %s\n",
			r.Rep, sim.SubSeed(sc.Sim.Seed, r.Rep), r.MeanQ, r.MaxQ, r.MeanLat, verdict)
	}
	fmt.Printf("queue:       mean %.2f ± %.2f across replications\n", res.MeanQ.Mean(), res.MeanQ.Std())
	fmt.Printf("latency:     mean %.2f ± %.2f across replications\n", res.MeanLat.Mean(), res.MeanLat.Std())
	verdict := "STABLE"
	if !res.StableAll {
		verdict = "UNSTABLE (at least one replication)"
	}
	fmt.Printf("verdict:     %s\n", verdict)
	return runErr
}

func run(ctx context.Context, sc dynsched.Scenario, queueCSV string, asJSON bool) error {
	c, err := sc.Compile()
	if err != nil {
		return err
	}
	res, runErr := c.Run(ctx)
	if runErr != nil && res == nil {
		return runErr
	}
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "dynsched: %v — reporting the partial result\n", runErr)
	}
	if asJSON {
		if err := printJSON(res); err != nil {
			return err
		}
		return runErr
	}

	s := c.Protocol.Sizing()
	fmt.Printf("scenario:    %s\n", sc.Name)
	fmt.Printf("network:     %d nodes, %d links, model=%s\n",
		c.Graph.NumNodes(), c.Graph.NumLinks(), c.Model.Name())
	if d := c.Diagnostics; d != nil {
		line := fmt.Sprintf("model table: backing=%s (dense threshold %d links)", d.Backing, d.DenseMaxLinks)
		if d.FarFloor > 0 {
			line += fmt.Sprintf("  far-field floor ε=%g", d.FarFloor)
		}
		if d.CellSize > 0 {
			line += fmt.Sprintf("  cell=%g", d.CellSize)
		}
		fmt.Println(line)
	}
	fmt.Printf("protocol:    %s  frame T=%d  J=%d  main=%d  cleanup=%d  δmax=%d\n",
		c.Protocol.Name(), s.T, s.J, s.MainBudget, s.CleanupBudget, s.DelayMax)
	fmt.Printf("injection:   %s  λ=%.4f\n", c.Process.Name(), c.Process.Rate())
	fmt.Printf("run:         %d slots (%d frames)\n", res.Slots, c.Protocol.FramesRun)
	fmt.Printf("packets:     injected=%d delivered=%d in-flight=%d\n",
		res.Injected, res.Delivered, res.InFlight)
	fmt.Printf("failures:    %d failed, %d clean-up hops, %d still buffered, potential Φ=%d\n",
		c.Protocol.Failures, c.Protocol.CleanupDelivered, c.Protocol.FailedQueueLen(), c.Protocol.Potential())
	fmt.Printf("latency:     %s\n", res.Latency)
	fmt.Printf("queue:       mean=%.1f max=%.1f\n", res.Queue.MeanV(), res.Queue.MaxV())
	fmt.Printf("fairness:    %.3f (Jain index over per-link service)\n", res.FairnessIndex())
	fmt.Println(plot.Series("queue  ", &res.Queue, 60))
	fmt.Println(plot.Histogram("latency", res.Latency, 60))
	verdict := "STABLE"
	if !res.Verdict.Stable {
		verdict = "UNSTABLE"
	}
	fmt.Printf("verdict:     %s (tail growth %.1f over mean %.1f)\n",
		verdict, res.Verdict.Growth, res.Verdict.TailMean)

	if queueCSV != "" {
		f, err := os.Create(queueCSV)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := res.Queue.WriteCSV(f, "slot", "queue"); err != nil {
			return err
		}
		fmt.Printf("queue series written to %s (%d samples)\n", queueCSV, res.Queue.Len())
	}
	if res.ProtocolErrors > 0 {
		return fmt.Errorf("%d protocol errors — this is a bug", res.ProtocolErrors)
	}
	return runErr
}

func printJSON(v any) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
