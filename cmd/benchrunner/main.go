// Command benchrunner regenerates every table and figure of the paper's
// evaluation section and prints the rows/series in a compact text form.
//
// Usage:
//
//	benchrunner                          # all experiments, laptop-scale preset
//	benchrunner -preset quick            # CI-scale (seconds per experiment)
//	benchrunner -preset paper            # full Table 1 sizes (slow)
//	benchrunner -experiment figure9      # a single experiment
//	benchrunner -experiment table2 -scale 0.5 -budget 100
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	var (
		preset     = flag.String("preset", "default", "options preset: quick | default | paper")
		experiment = flag.String("experiment", "all", "which experiment to run: all | overhead | autolabel | scale | table1 | figure7 | figure8 | figure9 | figure10 | figure11 | table2 | efficiency | human | figure12 | figure13 | figure14")
		scale      = flag.Float64("scale", 0, "override dataset scale")
		budget     = flag.Int("budget", 0, "override oracle budget")
		seed       = flag.Int64("seed", 0, "override random seed")
		treematch  = flag.Bool("treematch", false, "enable the TreeMatch grammar")
		perfOut    = flag.String("perf-out", "BENCH_perf.json", "path of the JSON report the autolabel and scale experiments update")
	)
	flag.Parse()

	opts := presetOptions(*preset)
	if *scale > 0 {
		opts.Scale = *scale
	}
	if *budget > 0 {
		opts.Budget = *budget
	}
	if *seed != 0 {
		opts.Seed = *seed
	}
	if *treematch {
		opts.UseTreeMatch = true
	}

	runners := map[string]func(experiments.Options) error{
		"overhead":   func(experiments.Options) error { return runOverhead() },
		"autolabel":  func(experiments.Options) error { return runAutolabel(*perfOut) },
		"scale":      func(experiments.Options) error { return runScale(*perfOut) },
		"table1":     runTable1,
		"figure7":    runFigure7,
		"figure8":    runFigure8,
		"figure9":    runFigure9,
		"figure10":   runFigure10,
		"figure11":   runFigure11,
		"table2":     runTable2,
		"efficiency": runEfficiency,
		"human":      runHuman,
		"figure12":   runFigure12,
		"figure13":   runFigure13,
		"figure14":   runFigure14,
	}
	order := []string{"table1", "figure7", "figure8", "figure9", "figure10", "figure11",
		"table2", "efficiency", "human", "figure12", "figure13", "figure14"}

	start := time.Now()
	if *experiment == "all" {
		for _, name := range order {
			if err := runners[name](opts); err != nil {
				fatalf("%s: %v", name, err)
			}
		}
	} else {
		run, ok := runners[strings.ToLower(*experiment)]
		if !ok {
			fatalf("unknown experiment %q", *experiment)
		}
		if err := run(opts); err != nil {
			fatalf("%s: %v", *experiment, err)
		}
	}
	fmt.Printf("\ntotal wall clock: %v\n", time.Since(start).Round(time.Second))
}

func presetOptions(preset string) experiments.Options {
	switch strings.ToLower(preset) {
	case "quick":
		return experiments.QuickOptions()
	case "paper":
		return experiments.PaperOptions()
	default:
		return experiments.DefaultOptions()
	}
}

func header(title string) {
	fmt.Printf("\n=== %s ===\n", title)
}

func runTable1(o experiments.Options) error {
	header("Table 1: dataset statistics")
	rows, err := o.Table1()
	if err != nil {
		return err
	}
	fmt.Printf("%-14s %12s %12s  %s\n", "dataset", "#sentences", "%positives", "labeling")
	for _, r := range rows {
		fmt.Printf("%-14s %12d %11.1f%%  %s\n", r.Dataset, r.Sentences, r.PositivePct, r.Task)
	}
	return nil
}

func runFigure7(o experiments.Options) error {
	header("Figure 7: coverage vs. random seed-set size (Snuba vs Darwin(HS))")
	sizes := map[string][]int{
		"directions": {25, 50, 125, 250, 500, 1000},
		"musicians":  {25, 100, 500, 1000, 2000},
	}
	for _, dataset := range []string{"directions", "musicians"} {
		res, err := o.Figure7(dataset, scaleSizes(sizes[dataset], o.Scale))
		if err != nil {
			return err
		}
		printSeedSize(res)
	}
	return nil
}

func runFigure8(o experiments.Options) error {
	header("Figure 8: coverage vs. biased seed-set size (token withheld from the seed)")
	sizes := map[string][]int{
		"directions": {25, 50, 200, 400, 800, 1600},
		"musicians":  {20, 100, 500, 1000, 2000},
	}
	for _, dataset := range []string{"directions", "musicians"} {
		res, err := o.Figure8(dataset, scaleSizes(sizes[dataset], o.Scale), experiments.WithheldTokenFor(dataset))
		if err != nil {
			return err
		}
		printSeedSize(res)
	}
	return nil
}

// scaleSizes shrinks the paper's seed-set sizes alongside the corpus scale so
// the seed/corpus ratios stay comparable, with a floor of 10.
func scaleSizes(sizes []int, scale float64) []int {
	if scale >= 1 {
		return sizes
	}
	out := make([]int, len(sizes))
	for i, s := range sizes {
		v := int(float64(s) * scale * 5) // keep seeds meaningfully sized at small scales
		if v < 10 {
			v = 10
		}
		if v > s {
			v = s
		}
		out[i] = v
	}
	return out
}

func printSeedSize(res experiments.SeedSizeResult) {
	label := res.Dataset
	if res.Biased {
		label += " (withheld: " + res.WithheldToken + ")"
	}
	fmt.Printf("%-36s %10s %10s %10s\n", label, "#seeds", "Snuba", "Darwin(HS)")
	for _, p := range res.Points {
		fmt.Printf("%-36s %10d %10.2f %10.2f\n", "", p.SeedSize, p.Snuba, p.Darwin)
	}
}

func runFigure9(o experiments.Options) error {
	header("Figure 9: rule coverage and classifier F-score vs. #questions")
	for _, dataset := range experiments.Figure9Datasets() {
		res, err := o.Figure9(dataset)
		if err != nil {
			return err
		}
		printMethodCurves(res, o.Budget)
	}
	return nil
}

func runFigure10(o experiments.Options) error {
	header("Figure 10: coverage and F-score vs. #questions on professions")
	res, err := o.Figure10()
	if err != nil {
		return err
	}
	printMethodCurves(res, o.Budget)
	return nil
}

func printMethodCurves(res experiments.MethodCurves, budget int) {
	fmt.Printf("\n[%s]\n", res.Dataset)
	checkpoints := []int{budget / 4, budget / 2, budget}
	fmt.Printf("  %-12s", "coverage")
	for _, q := range checkpoints {
		fmt.Printf("  q=%-6d", q)
	}
	fmt.Println()
	for _, method := range sortedMethodNames(res.Coverage) {
		curve := res.Coverage[method]
		fmt.Printf("  %-12s", method)
		for _, q := range checkpoints {
			fmt.Printf("  %-8.2f", curve.At(q))
		}
		fmt.Println()
	}
	fmt.Printf("  %-12s", "F-score")
	for _, q := range checkpoints {
		fmt.Printf("  q=%-6d", q)
	}
	fmt.Println()
	for _, method := range sortedMethodNames(res.FScore) {
		curve := res.FScore[method]
		fmt.Printf("  %-12s", method)
		for _, q := range checkpoints {
			fmt.Printf("  %-8.2f", curve.At(q))
		}
		fmt.Println()
	}
}

func sortedMethodNames[M any](m map[string]M) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func runFigure11(o experiments.Options) error {
	header("Figure 11: example rule traversals of Darwin(HS)")
	traces, err := o.Figure11()
	if err != nil {
		return err
	}
	for _, tr := range traces {
		fmt.Println(tr.String())
	}
	return nil
}

func runTable2(o experiments.Options) error {
	header("Table 2: Darwin vs Darwin+Snorkel classifier F-score")
	rows, err := o.Table2()
	if err != nil {
		return err
	}
	fmt.Printf("%-16s %10s %16s\n", "dataset", "Darwin", "Darwin+Snorkel")
	for _, r := range rows {
		fmt.Printf("%-16s %10.2f %16.2f\n", r.Dataset, r.Darwin, r.DarwinSnorkel)
	}
	return nil
}

func runEfficiency(o experiments.Options) error {
	header("Efficiency: index construction and end-to-end label collection (professions)")
	res, err := o.Efficiency(nil)
	if err != nil {
		return err
	}
	fmt.Printf("%10s %14s %14s %10s %10s\n", "#sentences", "index build", "total run", "questions", "coverage")
	for _, r := range res {
		fmt.Printf("%10d %14v %14v %10d %10.2f\n",
			r.Sentences, r.IndexBuild.Round(time.Millisecond), r.TotalRun.Round(time.Millisecond),
			r.Questions, r.Coverage)
	}
	return nil
}

func runHuman(o experiments.Options) error {
	header("§4.5: simulated human annotators (3-vote crowd) vs perfect oracle")
	res, err := o.HumanAnnotators(0.05)
	if err != nil {
		return err
	}
	fmt.Printf("dataset=%s  perfect coverage=%.2f  crowd coverage=%.2f  false YES=%d/%d  est. human effort=%.0f min\n",
		res.Dataset, res.PerfectCoverage, res.CrowdCoverage, res.CrowdFalseYes, res.CrowdQueries, res.EstimatedMinutes)
	return nil
}

func runFigure12(o experiments.Options) error {
	header("Figure 12a: sensitivity to tau (musicians)")
	taus, err := o.Figure12Tau(nil)
	if err != nil {
		return err
	}
	printParamCurves(taus, o.Budget)
	header("Figure 12b: sensitivity to the seed rule (musicians)")
	seeds, err := o.Figure12Seeds(nil)
	if err != nil {
		return err
	}
	printParamCurves(seeds, o.Budget)
	return nil
}

func runFigure13(o experiments.Options) error {
	header("Figure 13: sensitivity to the number of generated candidates (musicians)")
	curves, err := o.Figure13Candidates(nil)
	if err != nil {
		return err
	}
	printParamCurves(curves, o.Budget)
	return nil
}

func runFigure14(o experiments.Options) error {
	header("Figure 14: effect of classifier training epochs (musicians)")
	points, err := o.Figure14Epochs(nil, 0.75)
	if err != nil {
		return err
	}
	fmt.Printf("%8s %22s %16s\n", "epochs", "questions to 75% cov", "final coverage")
	for _, p := range points {
		q := fmt.Sprintf("%d", p.QuestionsToTarget)
		if p.QuestionsToTarget < 0 {
			q = "not reached"
		}
		fmt.Printf("%8d %22s %16.2f\n", p.Epochs, q, p.FinalCoverage)
	}
	return nil
}

func printParamCurves(curves []experiments.ParamCurve, budget int) {
	checkpoints := []int{budget / 4, budget / 2, budget}
	fmt.Printf("  %-16s", "")
	for _, q := range checkpoints {
		fmt.Printf("  q=%-6d", q)
	}
	fmt.Println()
	for _, pc := range curves {
		fmt.Printf("  %-16s", pc.Label)
		for _, q := range checkpoints {
			fmt.Printf("  %-8.2f", pc.Curve.At(q))
		}
		fmt.Println()
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchrunner: "+format+"\n", args...)
	os.Exit(1)
}
