package shard

import (
	"testing"
	"time"

	"repro/internal/workload"
)

// TestDeterminismPin pins one seed's exact outcome on a small sharded
// installation: 2 authorities, 64 closed-loop Zipf metadata clients,
// one simulated second. The determinism tests compare two runs of the
// same binary; this one compares against numbers recorded from an
// earlier scheduler, so a change to event order — a reordered heap, a
// moved RNG draw — fails here even when it is self-consistent. Update
// the numbers only for a change meant to alter the simulation, and say
// so in its description.
func TestDeterminismPin(t *testing.T) {
	const (
		wantFired = 80717
		wantOps   = 19940
		wantSent  = 40208
	)
	inst := New(scaleOptions(2, 64))
	inst.Start()
	runners := make([]*workload.MetaRunner, 64)
	for ci := range runners {
		runners[ci] = workload.NewMetaRunner(inst.Nodes[ci], inst.Sched, ci,
			16, 1.2, int64(1000+ci))
		runners[ci].Start()
	}
	inst.RunFor(time.Second)
	var ops uint64
	for _, r := range runners {
		ops += r.Ops
	}
	sent, _, _ := inst.Control.Counts()
	if fired := inst.Sched.Fired(); fired != wantFired || ops != wantOps || sent != wantSent {
		t.Fatalf("fired %d events, completed %d ops, sent %d control messages; pinned %d, %d, %d",
			fired, ops, sent, wantFired, wantOps, wantSent)
	}
}
