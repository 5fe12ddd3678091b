// Package cli holds the testable implementations of the command-line
// tools. Each command's main() is a thin wrapper over a Run* function
// taking explicit arguments and streams, so the full argument parsing,
// validation and I/O behaviour is covered by unit tests.
package cli

import (
	"flag"
	"fmt"
	"io"

	"adaptivelink/internal/datagen"
)

// RunDatagen implements cmd/datagen. It returns the process exit code.
func RunDatagen(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("datagen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seed      = fs.Int64("seed", 1, "generation seed (runs are deterministic per seed)")
		parents   = fs.Int("parents", datagen.DefaultParentSize, "parent table size |R|")
		children  = fs.Int("children", datagen.DefaultParentSize, "child table size |S|")
		pattern   = fs.String("pattern", "uniform", "perturbation pattern: uniform, interleaved-low, few-high, many-high")
		rate      = fs.Float64("rate", datagen.DefaultVariantRate, "overall variant proportion per perturbed input")
		both      = fs.Bool("both", false, "perturb the parent input too (default: child only)")
		parentOut = fs.String("parent-out", "locations.csv", "parent table output path")
		childOut  = fs.String("child-out", "accidents.csv", "child table output path")
		quiet     = fs.Bool("quiet", false, "suppress the summary")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	p, ok := datagen.ParsePattern(*pattern)
	if !ok {
		fmt.Fprintf(stderr, "datagen: unknown pattern %q\n", *pattern)
		return 2
	}
	spec := datagen.Spec{
		Seed:          *seed,
		ParentSize:    *parents,
		ChildSize:     *children,
		VariantRate:   *rate,
		Pattern:       p,
		PerturbParent: *both,
	}
	ds, err := datagen.Generate(spec)
	if err != nil {
		fmt.Fprintf(stderr, "datagen: %v\n", err)
		return 1
	}
	if err := ds.Parent.SaveCSV(*parentOut); err != nil {
		fmt.Fprintf(stderr, "datagen: write parent: %v\n", err)
		return 1
	}
	if err := ds.Child.SaveCSV(*childOut); err != nil {
		fmt.Fprintf(stderr, "datagen: write child: %v\n", err)
		return 1
	}
	if !*quiet {
		cv, pv := ds.VariantCount()
		fmt.Fprintf(stdout, "dataset %s: parent %d tuples (%d variants) -> %s\n",
			spec.Name(), ds.Parent.Len(), pv, *parentOut)
		fmt.Fprintf(stdout, "           child  %d tuples (%d variants) -> %s\n",
			ds.Child.Len(), cv, *childOut)
		fmt.Fprintf(stdout, "           exact-join attainable matches: %d of %d\n",
			ds.TrueMatches(), ds.Child.Len())
		fmt.Fprintf(stdout, "child perturbation map:\n|%s|\n",
			datagen.Render(ds.ChildRegions, ds.Child.Len(), 72))
	}
	return 0
}
