package bench

import (
	"strings"
	"testing"

	"repro/internal/workloads"
)

// fastCfg keeps harness unit tests quick; the benchmark targets and
// cmd/benchsuite use the default factor 1024.
func fastCfg() workloads.Config {
	// The chunk scales with the factor (see workloads doc comment): at
	// 1:2^16 the 4 MiB real-world I/O unit becomes 64 bytes; 128 keeps the
	// call-count ratios faithful while staying fast.
	return workloads.Config{Factor: 1 << 16, Chunk: 128, Ranks: 4, Executors: 2}
}

func TestTableIReproducesProfiles(t *testing.T) {
	res, err := RunTableI(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 9 {
		t.Fatalf("Table I rows = %d, want 9", len(res.Rows))
	}
	if !res.Matches() {
		t.Fatalf("profile labels diverge from the paper:\n%s", res.Render())
	}
	out := res.Render()
	for _, app := range []string{"BLAST", "MOM", "EH", "RT", "Sort", "CC", "Grep", "DT", "Tokenizer"} {
		if !strings.Contains(out, app) {
			t.Fatalf("render missing %s:\n%s", app, out)
		}
	}
}

func TestFigure1Shape(t *testing.T) {
	res, err := RunFigure1(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bars) != 5 {
		t.Fatalf("Figure 1 bars = %d, want 5", len(res.Bars))
	}
	for _, bar := range res.Bars {
		fileShare := bar.Percent[0] + bar.Percent[1]
		switch bar.App {
		case "EH":
			// Prep-script slivers present but small.
			if bar.Percent[2] == 0 && bar.Percent[3] == 0 {
				t.Fatalf("EH shows no prep-script calls:\n%s", res.Render())
			}
			if fileShare < 95 {
				t.Fatalf("EH file share = %.2f%%:\n%s", fileShare, res.Render())
			}
		default:
			// All other HPC apps: reads and writes only.
			if bar.Percent[2] != 0 || bar.Percent[3] != 0 {
				t.Fatalf("%s shows non-file calls:\n%s", bar.App, res.Render())
			}
		}
	}
	if !strings.Contains(res.Render(), "FIGURE 1") {
		t.Fatal("render missing title")
	}
}

func TestFigure2Shape(t *testing.T) {
	res, err := RunFigure2(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bars) != 5 {
		t.Fatalf("Figure 2 bars = %d, want 5", len(res.Bars))
	}
	for _, bar := range res.Bars {
		fileShare := bar.Percent[0] + bar.Percent[1]
		if fileShare < 98 {
			t.Fatalf("%s file share = %.2f%%, paper reports > 98%%:\n%s",
				bar.App, fileShare, res.Render())
		}
		if bar.Percent[2] == 0 {
			t.Fatalf("%s shows no directory operations (Spark always has a few):\n%s",
				bar.App, res.Render())
		}
	}
}

func TestTableIIExactCensus(t *testing.T) {
	res, err := RunTableII(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if !res.MatchesPaper() {
		t.Fatalf("Table II census diverges from 43/43/5/0:\n%s", res.Render())
	}
	out := res.Render()
	if !strings.Contains(out, "43") || !strings.Contains(out, "opendir (Input data directory)") {
		t.Fatalf("render malformed:\n%s", out)
	}
}

func TestMappingCoverage(t *testing.T) {
	res, err := RunMapping(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 { // 5 HPC bars + 5 Spark apps
		t.Fatalf("mapping rows = %d, want 10", len(res.Rows))
	}
	if !res.AllRunAndMostlyDirect() {
		t.Fatalf("mapping claim fails:\n%s", res.Render())
	}
}

func TestFutureWorkGainsHold(t *testing.T) {
	res, err := RunFutureWork(FutureWorkOptions{
		Files:       50,
		Depths:      []int{1, 4},
		Writers:     []int{1, 4},
		ListFiles:   64,
		DecoyFactor: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.GainsHold() {
		t.Fatalf("future-work gains do not hold:\n%s", res.Render())
	}
	// The paper concedes the listing emulation is slow: the flat side must
	// actually pay a cost there (no free lunch).
	if len(res.Listing) == 0 || res.Listing[0].Slowdown <= 1 {
		t.Fatalf("listing emulation unexpectedly free:\n%s", res.Render())
	}
	out := res.Render()
	for _, want := range []string{"Metadata sweep", "Shared-file", "Directory listing"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestHumanHelpers(t *testing.T) {
	cases := map[int64]string{
		5:             "5 B",
		1500:          "1.5 KB",
		2_500_000:     "2.5 MB",
		3_000_000_000: "3.0 GB",
	}
	for in, want := range cases {
		if got := humanBytes(in); got != want {
			t.Fatalf("humanBytes(%d) = %q, want %q", in, got, want)
		}
	}
	if got := humanRatio(2100); got != "2.1e+03" {
		t.Fatalf("humanRatio(2100) = %q", got)
	}
	if got := humanRatio(0.042); got != "0.04" {
		t.Fatalf("humanRatio(0.042) = %q", got)
	}
	if got := humanRatio(0.004); got != "4.0e-03" {
		t.Fatalf("humanRatio(0.004) = %q", got)
	}
}
