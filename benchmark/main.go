// Command benchmark is the repository's one performance ledger: it
// builds cmd/adaptivelinkd, drives real daemon processes with two
// closed-loop clients from this one process, prints every end-to-end
// metric by name and checks every answer against an in-process
// reference. With --trace 1 it prints the per-layer ledger instead.
// README.md is the glossary; BENCHMARK.json at the repository root
// names the metrics, their bounds and the workloads.
//
// The harness contract:
//
//	go run -C benchmark . --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// prints, as the last line of standard output, one JSON object with the
// keys correct, attempted, failed and metrics. Without --workload all
// four workloads run in turn; --repeat and --compare are for people.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run (default: all four in turn)")
		seed    = fs.Int64("seed", 42, "seed of all generated data")
		seconds = fs.Float64("seconds", 10, "timed budget of one run: link segments plus upserts")
		trace   = fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: the per-layer ledger")
		repeat  = fs.Int("repeat", 0, "run N full end-to-end sets and write them to out/result-<n>.json")
		compare = fs.Bool("compare", false, "compare two result files: --compare a.json b.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: --compare wants two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() > 0 || *seconds <= 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(stderr, "benchmark: unexpected arguments; see --help")
		return 2
	}
	ws := workloads
	if *name != "" {
		w, ok := workloadNamed(*name)
		if !ok {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
			return 2
		}
		ws = []workload{w}
	}

	// Children die with the driver: a signal reaps every live fleet
	// before the process exits.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		live.closeAll()
		os.Exit(130)
	}()
	defer live.closeAll()

	root, err := repoRoot()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	e := env{outDir: filepath.Join(root, "benchmark", "out"), log: stdout, scale: 1}
	if e.bin, err = buildDaemon(root, e.outDir); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}

	measure := func(w workload) (*outcome, error) {
		if *trace == 1 {
			return runTraced(e, w, *seed, *seconds)
		}
		return runEndToEnd(e, w, *seed, *seconds)
	}
	if *repeat > 0 {
		return repeatSets(e, ws, *repeat, *seed, *seconds, stdout, stderr)
	}
	code := 0
	var last *outcome
	for _, w := range ws {
		o, err := measure(w)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
			return 1
		}
		printOutcome(stdout, w, o, *trace == 1)
		for _, err := range o.errs {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
		}
		if !o.Correct {
			code = 1
		}
		last = o
	}
	if code != 0 {
		// A wrong answer is not a result: no result line.
		return code
	}
	if len(ws) == 1 {
		printContractLine(stdout, last, *trace == 1)
	}
	return 0
}

// repoRoot walks up from the working directory to the module
// adaptivelink, whose cmd/adaptivelinkd the benchmark builds and runs.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		raw, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(raw), "module adaptivelink\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod of module adaptivelink above the working directory; run from the repository")
		}
		dir = parent
	}
}

// buildDaemon builds cmd/adaptivelinkd once into outDir.
func buildDaemon(root, outDir string) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	bin := filepath.Join(outDir, "adaptivelinkd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/adaptivelinkd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building cmd/adaptivelinkd: %v\n%s", err, out)
	}
	return bin, nil
}

// printOutcome lists a run's metrics for a person: name, unit, value
// and sample count, in the order of the metric tables. A person sees
// everything the run measured, the harness only what it asked for.
func printOutcome(w io.Writer, wl workload, o *outcome, traced bool) {
	defs := measured
	if traced {
		defs = append(append([]metricDef(nil), endToEnd...), perLayer...)
	}
	fmt.Fprintf(w, "\n%s (%d operations attempted, %d failed)\n", wl.name, o.Attempted, o.Failed)
	for _, d := range defs {
		s, ok := o.Metrics[d.name]
		if !ok {
			fmt.Fprintf(w, "  %-40s MISSING\n", d.name)
			continue
		}
		note := ""
		if s.Note != "" {
			note = "  (" + s.Note + ")"
		}
		fmt.Fprintf(w, "  %-40s %14.4f %-6s n=%d%s\n", d.name, s.Value, s.Unit, s.N, note)
	}
}

// printContractLine prints the harness result: exactly the keys
// correct, attempted, failed and metrics, each metric a value and a
// unit.
func printContractLine(w io.Writer, o *outcome, traced bool) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{o.Correct, o.Attempted, o.Failed, map[string]valueUnit{}}
	for _, d := range defs {
		line.Metrics[d.name] = valueUnit{o.Metrics[d.name].Value, d.unit}
	}
	raw, _ := json.Marshal(line)
	fmt.Fprintf(w, "%s\n", raw)
}
