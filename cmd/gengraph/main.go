// Command gengraph generates the synthetic evaluation datasets and writes
// them as edge-list files, or prints their statistics next to the published
// Table IV numbers.
//
// Examples:
//
//	gengraph -stats -scale 0.02                    # statistics check
//	gengraph -dataset DBLP -scale 0.05 -out d.txt  # write one dataset
//	gengraph -all -scale 0.01 -dir ./data          # write all eight
//	gengraph -skew 50000 -out skew.txt             # heavy-tailed sample sizes
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	imin "github.com/imin-dev/imin"
	"github.com/imin-dev/imin/internal/datasets"
	"github.com/imin-dev/imin/internal/rng"
)

func main() {
	var (
		dataset = flag.String("dataset", "", "dataset to generate (one of "+strings.Join(imin.DatasetNames(), ", ")+")")
		all     = flag.Bool("all", false, "generate all eight datasets")
		stats   = flag.Bool("stats", false, "print statistics vs the paper's Table IV instead of writing files")
		deep    = flag.Bool("deep", false, "with -stats: add connectivity and degree-tail analysis per dataset")
		scale   = flag.Float64("scale", 0.02, "fraction of the published dataset size")
		seed    = flag.Uint64("rng", 1, "random seed")
		out     = flag.String("out", "", "output file for -dataset")
		dir     = flag.String("dir", ".", "output directory for -all")
		format  = flag.String("format", "text", "output format: text (edge list) or binary (fast loading)")

		skew       = flag.Int("skew", 0, "generate a graph with this many vertices whose live-edge sample sizes are heavy-tailed (unbalances the parallel incremental estimator round); overrides -dataset/-all")
		skewChains = flag.Int("skew-chains", 16, "with -skew: number of high-probability cascade chains behind the gateway vertex")
	)
	flag.Parse()

	write := func(g *imin.Graph, path string) error {
		switch *format {
		case "text":
			return g.WriteEdgeListFile(path)
		case "binary":
			return g.WriteBinaryFile(path)
		default:
			return fmt.Errorf("unknown format %q (want text or binary)", *format)
		}
	}
	ext := ".txt"
	if *format == "binary" {
		ext = ".bin"
	}

	switch {
	case *skew > 0:
		g := datasets.SkewedCascade(*skew, *skewChains, 0.25, 0.05, rng.New(*seed))
		path := *out
		if path == "" {
			path = "skew" + ext
		}
		if err := write(g, path); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s: %d vertices, %d edges (skewed cascade, %d chains; sample from vertex 0)\n",
			path, g.N(), g.M(), *skewChains)
	case *stats:
		fmt.Print(datasets.TableIV(*scale, *seed))
		if *deep {
			fmt.Println("\nConnectivity and degree tail:")
			fmt.Println("Dataset          WCCs   largest%    SCCs    alpha(d>=10)")
			for _, name := range imin.DatasetNames() {
				g, err := imin.GenerateDataset(name, *scale, *seed)
				if err != nil {
					fatal(err)
				}
				c := imin.AnalyzeComponents(g)
				fmt.Printf("%-12s %8d %9.1f%% %7d %11.2f\n",
					name, c.WeakCount, 100*c.LargestWeakFraction, c.StrongCount, imin.PowerLawAlpha(g, 10))
			}
		}
	case *all:
		for _, name := range imin.DatasetNames() {
			g, err := imin.GenerateDataset(name, *scale, *seed)
			if err != nil {
				fatal(err)
			}
			path := filepath.Join(*dir, strings.ToLower(name)+ext)
			if err := write(g, path); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote %s: %d vertices, %d edges\n", path, g.N(), g.M())
		}
	case *dataset != "":
		g, err := imin.GenerateDataset(*dataset, *scale, *seed)
		if err != nil {
			fatal(err)
		}
		path := *out
		if path == "" {
			path = strings.ToLower(*dataset) + ext
		}
		if err := write(g, path); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s: %d vertices, %d edges\n", path, g.N(), g.M())
	default:
		fmt.Fprintln(os.Stderr, "gengraph: need -stats, -all or -dataset NAME")
		flag.Usage()
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gengraph:", err)
	os.Exit(1)
}
