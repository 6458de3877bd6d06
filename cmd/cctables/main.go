// Command cctables regenerates the paper's tables: multiplexing degrees of
// the greedy, coloring, ordered-AAPC and combined algorithms on random
// patterns, random data-redistribution patterns and the frequently used
// patterns (Tables 1-3), the application pattern inventory (Table 4), and
// the compiled-vs-dynamic communication times on the slot-level simulator
// (Table 5). "-table all" adds the Fig. 1 and Fig. 3 checks. It also hosts
// the post-paper experiment sweeps that extend those tables to modern
// fabrics, currently the compiled-vs-dynamic crossover atlas. The data comes
// from internal/experiments; this command only renders it.
//
// Usage:
//
//	cctables -table 1 [-trials 100] [-seed 1996]
//	cctables -table 2 [-redists 500] [-seed 1996]
//	cctables -table 3
//	cctables -table 4
//	cctables -table 5
//	cctables -table all
//	cctables -experiment crossover
//	cctables -experiment crossover -topologies torus-8x8,dragonfly:4,8,2 -topk 2,4
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"

	ccomm "repro"
	"repro/internal/apps"
	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/request"
	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/topology"
)

var (
	tableFlag      = flag.String("table", "all", "table to regenerate: 1, 2, 3, 4, 5 or all")
	trialsFlag     = flag.Int("trials", 100, "random patterns per row in Table 1")
	redistsFlag    = flag.Int("redists", 500, "random redistributions in Table 2")
	seedFlag       = flag.Int64("seed", 1996, "random seed")
	spreadFlag     = flag.Bool("spread", false, "show mean±stddev in Table 1")
	workersFlag    = flag.Int("workers", 0, "trial worker pool size (0 = GOMAXPROCS); the numbers are identical for any value")
	experimentFlag = flag.String("experiment", "", "post-paper experiment to run instead of the tables: crossover")

	// Crossover-atlas knobs, used only with -experiment crossover.
	topologiesFlag = flag.String("topologies", "", "comma-separated topology specs for the atlas (default: the built-in 3-family grid)")
	topkFlag       = flag.String("topk", "", "comma-separated MoE top-k sparsity levels (default: 2,8)")
	flitsFlag      = flag.Int("flits", 0, "flits per selected expert in the MoE exchange (0 = default 4)")
	perSlotFlag    = flag.Int("reconfig-perslot", experiments.CrossoverReconfig.PerSlot, "compiled side's reconfiguration cost per TDM slot")
	barrierFlag    = flag.Int("reconfig-barrier", experiments.CrossoverReconfig.Barrier, "compiled side's reconfiguration barrier (slots)")
)

// tables maps each -table value to its renderers, printed in order with a
// blank line between them.
var tables = map[string][]func(io.Writer, *topology.Torus) error{
	"1":   {table1},
	"2":   {table2},
	"3":   {table3},
	"4":   {table4},
	"5":   {table5},
	"all": {table1, table2, table3, table4, table5, figures},
}

func main() {
	flag.Parse()
	if *trialsFlag < 1 {
		usage(fmt.Errorf("-trials must be at least 1, got %d", *trialsFlag))
	}
	if *redistsFlag < 1 {
		usage(fmt.Errorf("-redists must be at least 1, got %d", *redistsFlag))
	}
	if *experimentFlag != "" {
		switch *experimentFlag {
		case "crossover":
			crossover()
		default:
			fmt.Fprintf(os.Stderr, "cctables: unknown experiment %q (supported: crossover)\n", *experimentFlag)
			os.Exit(2)
		}
		return
	}
	renderers, ok := tables[*tableFlag]
	if !ok {
		usage(fmt.Errorf("unknown table %q", *tableFlag))
	}
	torus := topology.NewTorus(8, 8)
	for i, render := range renderers {
		if i > 0 {
			fmt.Println()
		}
		check(render(os.Stdout, torus))
	}
}

func header(w *tabwriter.Writer, first ...string) {
	for _, f := range first {
		fmt.Fprintf(w, "%s\t", f)
	}
	for _, name := range experiments.AlgorithmNames() {
		fmt.Fprintf(w, "%s\t", name)
	}
	fmt.Fprintln(w, "improvement\t")
}

func table1(out io.Writer, torus *topology.Torus) error {
	fmt.Fprintf(out, "Table 1: multiplexing degree for random patterns (8x8 torus, %d patterns per row)\n", *trialsFlag)
	rows, err := experiments.Table1(torus, experiments.Table1Config{Trials: *trialsFlag, Seed: *seedFlag, Workers: *workersFlag})
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(out, 4, 0, 2, ' ', tabwriter.AlignRight)
	header(w, "conns")
	for _, r := range rows {
		if *spreadFlag {
			fmt.Fprintf(w, "%d\t%.1f±%.1f\t%.1f±%.1f\t%.1f±%.1f\t%.1f±%.1f\t%.1f%%\t\n",
				r.Conns,
				r.Spread[0].Mean, r.Spread[0].StdDev,
				r.Spread[1].Mean, r.Spread[1].StdDev,
				r.Spread[2].Mean, r.Spread[2].StdDev,
				r.Spread[3].Mean, r.Spread[3].StdDev,
				r.Improvement)
			continue
		}
		fmt.Fprintf(w, "%d\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f%%\t\n",
			r.Conns, r.Degrees[0], r.Degrees[1], r.Degrees[2], r.Degrees[3], r.Improvement)
	}
	return w.Flush()
}

func table2(out io.Writer, torus *topology.Torus) error {
	fmt.Fprintln(out, "Table 2: multiplexing degree for random data redistribution patterns")
	fmt.Fprintf(out, "(64^3 array over 64 PEs, %d random redistributions)\n", *redistsFlag)
	rows, err := experiments.Table2(torus, experiments.Table2Config{Redistributions: *redistsFlag, Seed: *seedFlag, Workers: *workersFlag})
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(out, 4, 0, 2, ' ', tabwriter.AlignRight)
	header(w, "conns", "patterns")
	for _, r := range rows {
		label := fmt.Sprintf("%d-%d", r.Lo, r.Hi)
		if r.Lo == r.Hi {
			label = fmt.Sprintf("%d", r.Lo)
		}
		if r.Patterns == 0 {
			fmt.Fprintf(w, "%s\t0\t-\t-\t-\t-\t-\t\n", label)
			continue
		}
		fmt.Fprintf(w, "%s\t%d\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f%%\t\n",
			label, r.Patterns, r.Degrees[0], r.Degrees[1], r.Degrees[2], r.Degrees[3], r.Improvement)
	}
	return w.Flush()
}

// table3Rows recomputes Table 3 through the public batch compiler: every
// pattern of the table is compiled as an independent phase by
// ccomm.Compiler.CompileAll, one concurrent batch per algorithm column, so
// the sweep exercises the same parallel pipeline (schedule plus switch
// program lowering) that production phase compilation uses.
func table3Rows(torus *topology.Torus) ([]experiments.Table3Row, error) {
	entries, err := experiments.Table3Patterns(torus)
	if err != nil {
		return nil, err
	}
	sets := make([]ccomm.RequestSet, len(entries))
	for i, e := range entries {
		sets[i] = e.Set
	}
	algs := []ccomm.Algorithm{ccomm.Greedy, ccomm.Coloring, ccomm.AAPC, ccomm.Combined}
	rows := make([]experiments.Table3Row, len(entries))
	for i, e := range entries {
		rows[i] = experiments.Table3Row{Name: e.Name, Conns: len(e.Set), Degrees: make([]int, len(algs))}
	}
	for a, alg := range algs {
		phases, err := ccomm.Compiler{Topology: torus, Algorithm: alg}.CompileAll(sets)
		if err != nil {
			return nil, err
		}
		for i, ph := range phases {
			rows[i].Degrees[a] = ph.Degree()
		}
	}
	for i := range rows {
		rows[i].Improvement = experiments.Improvement(float64(rows[i].Degrees[0]), float64(rows[i].Degrees[3]))
	}
	return rows, nil
}

func table3(out io.Writer, torus *topology.Torus) error {
	fmt.Fprintln(out, "Table 3: multiplexing degree for frequently used patterns (8x8 torus)")
	rows, err := table3Rows(torus)
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(out, 4, 0, 2, ' ', tabwriter.AlignRight)
	header(w, "pattern", "conns")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\t%.1f%%\t\n",
			r.Name, r.Conns, r.Degrees[0], r.Degrees[1], r.Degrees[2], r.Degrees[3], r.Improvement)
	}
	return w.Flush()
}

func table4(out io.Writer, _ *topology.Torus) error {
	fmt.Fprintln(out, "Table 4: application communication patterns")
	w := tabwriter.NewWriter(out, 4, 0, 2, ' ', 0)
	fmt.Fprintln(w, "pattern\ttype\tconns\tdescription\t")
	gs, err := apps.GS(64, 64)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "GS\tshared array ref.\t%d\t%s\t\n", len(gs.Messages), gs.Description)
	tscf, err := apps.TSCF(64)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "TSCF\texplicit send/recv\t%d\t%s\t\n", len(tscf.Messages), tscf.Description)
	p3m, err := apps.P3M(32)
	if err != nil {
		return err
	}
	kinds := []string{"data distrib.", "data distrib.", "data distrib.", "data distrib.", "shared array ref."}
	for i, ph := range p3m {
		fmt.Fprintf(w, "%s\t%s\t%d\t%s\t\n", ph.Name, kinds[i], len(ph.Messages), ph.Description)
	}
	return w.Flush()
}

// table5 renders the communication time of the static application patterns
// under compiled communication and under dynamic control at the paper's
// fixed multiplexing degrees, with the simulator's default parameters.
func table5(out io.Writer, torus *topology.Torus) error {
	fixed := []int{1, 2, 5, 10}
	rows, err := experiments.Table5(torus, experiments.Table5Config{FixedDegrees: fixed, Workers: *workersFlag})
	if err != nil {
		return err
	}
	p := sim.DefaultParams(1)
	fmt.Fprintln(out, "Table 5: communication time for static patterns (slots, 8x8 torus)")
	fmt.Fprintf(out, "control hop delay %d slots, retry backoff %d slots, shadow queuing %v, scheme %s\n",
		p.CtlHopDelay, p.RetryBackoff, p.ShadowQueuing, p.Reservation)
	w := tabwriter.NewWriter(out, 4, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(w, "pattern\tsize\tdegree\tcompiled\t")
	for _, k := range fixed {
		fmt.Fprintf(w, "dyn K=%d\t", k)
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%d\t%d\t", r.Pattern, r.Size, r.Degree, r.Compiled)
		for _, k := range fixed {
			if t, ok := r.Dynamic[k]; ok {
				fmt.Fprintf(w, "%d\t", t)
			} else {
				fmt.Fprintf(w, "timeout\t")
			}
		}
		fmt.Fprintln(w)
	}
	return w.Flush()
}

// figures checks the paper's two worked examples: the Fig. 1 configuration
// is conflict-free, and greedy needs one slot more than optimal on Fig. 3.
func figures(out io.Writer, _ *topology.Torus) error {
	fig1 := request.Set{{Src: 4, Dst: 1}, {Src: 5, Dst: 3}, {Src: 6, Dst: 10}, {Src: 8, Dst: 9}, {Src: 11, Dst: 2}}
	res, err := schedule.Greedy{}.Schedule(topology.NewTorus(4, 4), fig1)
	if err != nil {
		return err
	}
	lin := topology.NewLinear(5)
	reqs := request.Set{{Src: 0, Dst: 2}, {Src: 1, Dst: 3}, {Src: 3, Dst: 4}, {Src: 2, Dst: 4}}
	g, err := schedule.Greedy{}.Schedule(lin, reqs)
	if err != nil {
		return err
	}
	e, err := schedule.Exact{}.Schedule(lin, reqs)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "Fig. 1: configuration {(4,1),(5,3),(6,10),(8,9),(11,2)} on the 4x4 torus schedules in %d slot(s)\n", res.Degree())
	fmt.Fprintf(out, "Fig. 3: greedy %d slots, optimal %d slots on the 5-node linear array\n", g.Degree(), e.Degree())
	return nil
}

// crossover renders the compiled-vs-dynamic crossover atlas over modern
// fabrics (see internal/experiments/crossover.go for the economics).
func crossover() {
	cfg := experiments.CrossoverConfig{
		Flits:   *flitsFlag,
		Seed:    uint64(*seedFlag),
		Workers: *workersFlag,
	}
	if *topologiesFlag != "" {
		cfg.Topologies = strings.Split(*topologiesFlag, ",")
	}
	if *topkFlag != "" {
		topks, err := cliutil.ParseIntList(*topkFlag)
		usage(err)
		cfg.TopKs = topks
	}
	rc := core.ReconfigCost{PerSlot: *perSlotFlag, Barrier: *barrierFlag}
	cfg.Reconfig = &rc

	rows, err := experiments.Crossover(cfg)
	check(err)
	fmt.Printf("Crossover atlas: compiled vs dynamic slot totals for the MoE exchange (seed %d)\n", *seedFlag)
	fmt.Printf("reconfiguration cost: %d/slot + %d barrier; dynamic cut off at 2x the compiled total\n",
		rc.PerSlot, rc.Barrier)
	fmt.Print(experiments.FormatCrossoverTable(rows))
}

func usage(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "cctables:", err)
		os.Exit(2)
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "cctables:", err)
		os.Exit(1)
	}
}
