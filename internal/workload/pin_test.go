package workload

import (
	"testing"
	"time"

	"repro/internal/cluster"
)

// TestDeterminismPin pins one seed's exact outcome on the paper's
// single-authority installation: three clients of the default mixed
// workload for 20 simulated seconds, with client 0 cut off from the
// control network for the middle 12 so that demands fail, leases expire
// and the server steals. It compares against numbers recorded from an
// earlier scheduler, so a change to event order fails here even when two
// runs of the same binary agree. Update the numbers only for a change
// meant to alter the simulation, and say so in its description.
func TestDeterminismPin(t *testing.T) {
	const (
		wantFired = 4243
		wantOps   = 142
		wantSent  = 3406
	)
	cl := cluster.New(cluster.DefaultOptions())
	cl.Start()
	cfg := DefaultConfig()
	Populate(cl, cfg)
	var runners []*Runner
	for c := range cl.Clients {
		r := NewRunner(cl, c, cfg, int64(100+c))
		r.Start()
		runners = append(runners, r)
	}
	cl.RunFor(4 * time.Second)
	cl.IsolateClient(0)
	cl.RunFor(12 * time.Second)
	cl.HealControl()
	cl.RunFor(4 * time.Second)
	var ops uint64
	for _, r := range runners {
		ops += r.Ops
	}
	sent, _, _ := cl.Control.Counts()
	if fired := cl.Sched.Fired(); fired != wantFired || ops != wantOps || sent != wantSent {
		t.Fatalf("fired %d events, completed %d ops, sent %d control messages; pinned %d, %d, %d",
			fired, ops, sent, wantFired, wantOps, wantSent)
	}
}
