// Command perfbench is evoprot's benchmark: it runs one named workload
// from a seed, checks the program's outputs, and prints every metric by
// name with its unit, ending with one JSON line. See README.md.
//
//	perfbench --workload paper-flare --seed 1 --seconds 10 --trace 0
//	perfbench --workload service-mix --seed 1 --runs 10
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strings"
)

// metric is one named measurement.
type metric struct {
	name  string
	value float64
	unit  string
}

// result is one run's outcome.
type result struct {
	attempted, failed int
	errs              []string
	metrics           []metric
	note              string // sample counts behind the metrics
}

// count books one service job against the attempts.
func (r *result) count(js jobSample) {
	r.attempted++
	if js.err != nil {
		r.failed++
		r.errs = append(r.errs, js.err.Error())
	}
}

// endToEnd lists the untraced run's metrics in print order.
var endToEnd = []string{"setup_s", "gens_per_s", "job_s.p50", "job_s.p90", "alloc_kb_per_gen", "heap_live_mb"}

// perLayer lists the traced run's metrics with their units, in print
// order. A workload that does not exercise a layer reports it as 0.
func perLayer() []metric {
	ms := []metric{
		{"datagen.by_name_s", 0, "s"},
		{"experiment.build_population_s", 0, "s"},
		{"islands.new_s", 0, "s"},
		{"score.setup.full_s", 0, "s"},
		{"score.setup.prepare_s", 0, "s"},
		{"score.evolve.prepare_s", 0, "s"},
		{"risk.DBRL.prepare_s", 0, "s"},
		{"risk.PRL.prepare_s", 0, "s"},
		{"risk.RSRL.prepare_s", 0, "s"},
	}
	for _, name := range measureNames {
		pkg := "infoloss"
		if isRisk[name] {
			pkg = "risk"
		}
		for _, op := range measureOps {
			ms = append(ms, metric{pkg + "." + name + "." + op.suffix + "_s", 0, "s"},
				metric{pkg + "." + name + "." + op.suffix + "_n", 0, "count"})
		}
	}
	for _, name := range []string{"score.route.batch_n", "score.route.wide_n", "score.route.clone_n",
		"score.route.empty_n", "score.commit_n", "score.evolve.prepare_n", "score.shardable_n"} {
		ms = append(ms, metric{name, 0, "count"})
	}
	ms = append(ms,
		metric{"core.eval_s", 0, "s"},
		metric{"core.self_s", 0, "s"},
		metric{"core.accepted_n", 0, "count"},
		metric{"core.offspring_n", 0, "count"},
		metric{"core.mutation_gens_n", 0, "count"},
		metric{"core.crossover_gens_n", 0, "count"},
		metric{"core.eval_share.mutation", 0, "ratio"},
		metric{"core.eval_share.crossover", 0, "ratio"},
		metric{"core.cross_mut_ratio", 0, "ratio"},
		metric{"islands.busy_s", 0, "s"},
		metric{"islands.wait_s", 0, "s"},
		metric{"islands.coord_s", 0, "s"},
		metric{"islands.epochs_n", 0, "count"},
		metric{"islands.migrations_n", 0, "count"},
		metric{"serve.submit_ms.p50", 0, "ms"},
		metric{"serve.first_event_ms.p50", 0, "ms"},
		metric{"serve.queue_wait_ms.p50", 0, "ms"},
		metric{"serve.run_s.p50", 0, "s"},
		metric{"serve.rejected_n", 0, "count"},
		metric{"serve.jobs_n", 0, "count"},
	)
	for _, op := range storeOpNames {
		ms = append(ms, metric{"storage." + op + ".n", 0, "count"},
			metric{"storage." + op + ".s", 0, "s"},
			metric{"storage." + op + ".kb", 0, "KB"})
	}
	return append(ms, metric{"trace.gens_per_s", 0, "1/s"}, metric{"trace.overhead", 0, "ratio"})
}

// workloads lists every workload name the benchmark knows.
func workloads() []string {
	names := []string{"service-mix"}
	for name := range engineWorkloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "workload: "+strings.Join(workloads(), ", "))
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := flag.Int("seconds", 10, "sizes the fixed work of a run: about this many seconds of measured phases on a 2-vCPU machine")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end ones")
	runs := flag.Int("runs", 0, "run the workload this many times with seeds seed, seed+1, ... in child processes and print each metric's median and IQR/median")
	flag.Parse()

	if *runs > 0 {
		return spread(*workload, *seed, *seconds, *trace, *runs)
	}
	var r result
	var err error
	if w, ok := engineWorkloads[*workload]; ok {
		r = runEngine(context.Background(), w, *seed, *seconds, *trace == 1)
	} else if *workload == "service-mix" {
		r, err = runService(*seed, *seconds, *trace == 1)
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s)\n", *workload, strings.Join(workloads(), ", "))
		return 2
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	for _, e := range r.errs {
		fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %s\n", *workload, e)
	}
	fmt.Printf("%s: %s\n", *workload, r.note)
	return report(os.Stdout, r, *trace == 1)
}

// report prints the run's metrics, one per line, then the result JSON as
// the last line.
func report(out *os.File, r result, traced bool) int {
	got := map[string]metric{}
	for _, m := range r.metrics {
		got[m.name] = m
	}
	var want []metric
	if traced {
		want = perLayer()
	} else {
		for _, name := range endToEnd {
			want = append(want, metric{name: name})
		}
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, w := range want {
		m, ok := got[w.name]
		if !ok {
			m = w
		}
		fmt.Fprintf(out, "%-36s %14.6g %s\n", m.name, m.value, m.unit)
		metrics[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   r.failed == 0 && len(r.errs) == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   metrics,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintf(out, "%s\n", line)
	return 0
}

// spread runs the workload n times in child processes, one seed each,
// and prints every metric's median, quartiles and IQR/median — the
// steadiness figures the benchmark's bounds are checked against.
func spread(workload string, seed uint64, seconds, trace, n int) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	values := map[string][]float64{}
	units := map[string]string{}
	var names []string
	for i := 0; i < n; i++ {
		cmd := exec.Command(self, "--workload", workload, "--seed", fmt.Sprint(seed+uint64(i)),
			"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: run %d: %v\n", i, err)
			return 1
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var res struct {
			Correct bool
			Metrics map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil || !res.Correct {
			fmt.Fprintf(os.Stderr, "perfbench: run %d: incorrect or unreadable result (%v)\n", i, err)
			return 1
		}
		for name, m := range res.Metrics {
			if _, ok := units[name]; !ok {
				names = append(names, name)
			}
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
		fmt.Fprintf(os.Stderr, "perfbench: run %d/%d (seed %d):", i+1, n, seed+uint64(i))
		for _, name := range endToEnd {
			if m, ok := res.Metrics[name]; ok {
				fmt.Fprintf(os.Stderr, " %s=%.4g", name, m.Value)
			}
		}
		fmt.Fprintln(os.Stderr)
	}
	sort.Strings(names)
	fmt.Printf("%-36s %12s %12s %12s %10s  (%s, %d seeds from %d)\n", "metric", "median", "q1", "q3", "iqr/med", workload, n, seed)
	for _, name := range names {
		med := median(values[name])
		q1, q3 := quartiles(values[name])
		fmt.Printf("%-36s %12.6g %12.6g %12.6g %10.4f %s\n", name, med, q1, q3, ratio(q3-q1, med), units[name])
	}
	return 0
}
