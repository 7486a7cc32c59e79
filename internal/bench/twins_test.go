package bench

import (
	"fmt"
	"testing"
	"time"
)

// TestVirtualTwinsPinned is the repo's one check on simulated cost: the nine
// deterministic twins are pure functions of the code path (seeded fixtures,
// virtual clocks), so each is pinned to the nanosecond and any change to a
// charge, a record or a protocol round fails here by name. A PR that means
// to move a twin copies the printed value into the pinned column and says why.
func TestVirtualTwinsPinned(t *testing.T) {
	must := func(d time.Duration, err error) time.Duration {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	quiesced, join, leave, err := VirtualRebalanceP99()
	twins := []struct {
		name        string
		got, pinned time.Duration
	}{
		{"write/healthy", must(VirtualWriteCost(false)), 6152376},
		{"write/degraded", must(VirtualWriteCost(true)), 7023611},
		{"rename/fastpath", must(VirtualRenameCost(true)), 20253614},
		{"rename/copy", must(VirtualRenameCost(false)), 21619991},
		{"s3/request", must(VirtualS3RequestCost()), 4896210},
		{"s3/overwrite", must(VirtualS3OverwriteCost()), 3189782},
		{"rebalance/quiesced", must(quiesced, err), 889837},
		{"rebalance/join", join, 2238106},
		{"rebalance/leave", leave, 1834361},
	}
	// Each bound sits between today's deterministic ratio and the failure it
	// exists to catch.
	bounds := []struct {
		num, den string
		max      float64
	}{
		// ~1.14 today: R-1 disks carry R disks' I/O. Synchronous repair
		// sneaking into the write path reads 2x.
		{"write/degraded", "write/healthy", 1.25},
		// ~0.94 today: the fast path saves the client wire legs and the 2PC
		// rounds, not the disk work. BlobRenamer routing disengaging reads 1.0.
		{"rename/fastpath", "rename/copy", 0.95},
		// ~2.5 and ~2.1 today: a foreground op queues behind at most one
		// throttled batch. An unthrottled sweep, or a batch holding the member
		// gate across its copies, reads an order of magnitude.
		{"rebalance/join", "rebalance/quiesced", 4},
		{"rebalance/leave", "rebalance/quiesced", 4},
	}

	got := map[string]time.Duration{}
	table := ""
	for _, tw := range twins {
		got[tw.name] = tw.got
		if tw.got != tw.pinned {
			t.Errorf("twin %s = %d ns, pinned %d ns", tw.name, tw.got, tw.pinned)
		}
		table += fmt.Sprintf("%-20s got %9d  pinned %9d\n", tw.name, tw.got, tw.pinned)
	}
	for _, b := range bounds {
		if ratio := float64(got[b.num]) / float64(got[b.den]); ratio > b.max {
			t.Errorf("%s / %s = %.3f, bound %.2f", b.num, b.den, ratio, b.max)
		}
	}
	if t.Failed() {
		t.Log("all twins:\n" + table)
	}
}
