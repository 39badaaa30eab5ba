// Command imindbench is the end-to-end serving benchmark of imind.
//
// An end-to-end run (--trace 0) writes the serving graph, starts the real
// imind daemon with tracing off, sets it up several times, and then sends
// a fixed request sequence derived from the workload seed over one
// connection in a closed loop. It checks every response and prints the
// end-to-end metrics. A traced run (--trace 1) sends the same sequence to
// the daemon once more, then replays it in-process through the layers'
// public functions with spans around each call, and prints the per-layer
// metrics. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it through run.sh from the repository root, which builds the daemon
// and this command first:
//
//	bash imindbench/run.sh --workload warm-reuse --seed 1 --seconds 20 --trace 0
//	bash imindbench/run.sh --workload cold-fresh --seconds 20 --steady 10
//
// See README.md for the workloads, the metrics and the ledger.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

// config is the command line.
type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	imind    string // daemon binary
	work     string // directory for this command's scratch files
	steady   int
	sameSeed bool
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the final JSON line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload name: warm-reuse, cold-fresh or mutate-mix")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed; the same seed gives the same graph and requests")
	flag.IntVar(&cfg.seconds, "seconds", 10, "nominal run length; fixes the request count, never read from the clock")
	flag.IntVar(&cfg.trace, "trace", 0, "0 prints end-to-end metrics; 1 replays traced and prints per-layer metrics")
	flag.StringVar(&cfg.imind, "imind", "", "path of the imind daemon binary")
	flag.StringVar(&cfg.work, "work", "", "directory for scratch files (graph, daemon data)")
	flag.IntVar(&cfg.steady, "steady", 0, "steadiness mode: run the workload this many times and print median, IQR and relative spread per metric")
	flag.BoolVar(&cfg.sameSeed, "steady-same-seed", false, "steadiness mode: repeat --seed instead of using seed, seed+1, ...")
	flag.Parse()

	if cfg.steady > 0 {
		if err := steady(cfg); err != nil {
			fmt.Fprintln(os.Stderr, "imindbench:", err)
			os.Exit(1)
		}
		return
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
	go func() {
		<-sigs
		killAll()
		os.Exit(1)
	}()

	rep, err := runOnce(cfg)
	killAll()
	if err != nil {
		fmt.Fprintln(os.Stderr, "imindbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "imindbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// runOnce performs one run in a private scratch directory it removes again.
func runOnce(cfg config) (*report, error) {
	w, err := workloadByName(cfg.workload)
	if err != nil {
		return nil, err
	}
	if cfg.seconds < 1 || (cfg.trace != 0 && cfg.trace != 1) {
		return nil, fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	if cfg.imind == "" || cfg.work == "" {
		return nil, fmt.Errorf("--imind and --work are required (run.sh sets them)")
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.work, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cfg.work = dir

	p, err := makePlan(w, cfg.seed, w.timedOps(cfg.seconds))
	if err != nil {
		return nil, err
	}
	graphFile := filepath.Join(dir, "serve.bin")
	if err := p.g.WriteBinaryFile(graphFile); err != nil {
		return nil, err
	}
	if cfg.trace == 0 {
		sp, err := serveRun(cfg, w, p, graphFile, setupsPerRun)
		if err != nil {
			return nil, err
		}
		ev := evaluate(w, p, sp)
		return ev.endToEnd(w, sp), nil
	}
	sp, err := serveRun(cfg, w, p, graphFile, 1)
	if err != nil {
		return nil, err
	}
	ev := evaluate(w, p, sp)
	rp, err := newReplay(w, p, filepath.Join(dir, "replay-state"))
	if err != nil {
		return nil, err
	}
	defer rp.close()
	return ev.perLayer(w, p, sp, rp)
}
