// Command benchsuite regenerates every table and figure of the paper's
// evaluation section, plus the Section III mapping analysis and the
// Section V future-work experiment.
//
// Usage:
//
//	benchsuite [-exp all|table1|fig1|fig2|table2|mapping|futurework]
//	           [-factor N] [-chunk N] [-ranks N] [-executors N]
//
// The default factor 1024 scales the paper's GB volumes to MB; the chunk
// scales the per-call I/O unit accordingly (see internal/workloads).
//
// No performance number comes from here: wall clock is `bash benchmark/run.sh`,
// simulated cost is internal/bench's TestVirtualTwinsPinned.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bench"
	"repro/internal/workloads"
)

func main() {
	exp := flag.String("exp", "all", "experiment: all, table1, fig1, fig2, table2, mapping, futurework")
	factor := flag.Int64("factor", 1024, "divide the paper's byte volumes by this factor")
	chunk := flag.Int("chunk", 4096, "per-call I/O unit in bytes")
	ranks := flag.Int("ranks", 8, "MPI ranks for HPC applications")
	executors := flag.Int("executors", 4, "Spark executors")
	flag.Parse()

	cfg := workloads.Config{
		Factor:    *factor,
		Chunk:     *chunk,
		Ranks:     *ranks,
		Executors: *executors,
	}

	valid := []string{"all"}
	ran := false
	run := func(name string, fn func() error) {
		valid = append(valid, name)
		if *exp != "all" && *exp != name {
			return
		}
		ran = true
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "benchsuite: %s: %v\n", name, err)
			os.Exit(1)
		}
	}

	run("table1", func() error {
		res, err := bench.RunTableI(cfg)
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
		fmt.Printf("profiles match the paper: %v\n\n", res.Matches())
		return nil
	})
	run("fig1", func() error {
		res, err := bench.RunFigure1(cfg)
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
		return nil
	})
	run("fig2", func() error {
		res, err := bench.RunFigure2(cfg)
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
		return nil
	})
	run("table2", func() error {
		res, err := bench.RunTableII(cfg)
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
		fmt.Printf("matches the paper's 43/43/5/0: %v\n\n", res.MatchesPaper())
		return nil
	})
	run("mapping", func() error {
		res, err := bench.RunMapping(cfg)
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
		fmt.Printf("all applications run on blobs with >98%% direct calls: %v\n\n",
			res.AllRunAndMostlyDirect())
		return nil
	})
	run("futurework", func() error {
		res, err := bench.RunFutureWork(bench.FutureWorkOptions{})
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
		fmt.Printf("flat-namespace gains hold: %v\n", res.GainsHold())
		return nil
	})
	if !ran {
		fmt.Fprintf(os.Stderr, "benchsuite: unknown experiment %q (valid: %s)\n", *exp, strings.Join(valid, ", "))
		os.Exit(2)
	}
}
