package drive

import (
	"bytes"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"darpanet/internal/exp"
	"darpanet/internal/harness"
)

// CampaignIDs are the experiments `cmd/experiments -runs 4` replicates
// that finish in well under a second each: E1–E11 and E15. The heavy
// families (E12–E14, E16) have workloads of their own.
var CampaignIDs = []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E15"}

// CampaignResult is one experiment's Monte Carlo campaign, reduced to
// what the benchmark checks, counts and digests.
type CampaignResult struct {
	ID       string
	Failures int
	// Counts sums the "ctr/..." registry mirror over every replica and
	// every kernel the driver exported.
	Counts Counts
	// JSON is harness.WriteJSON's rendering: byte-identical for the
	// same (experiment, base seed, runs) at any worker count.
	JSON []byte
	// ReplicaBusy is host time summed over the replicas' Run calls.
	ReplicaBusy time.Duration
}

// RunCampaign replicates experiment id runs times over seeds
// baseSeed, baseSeed+1, ... on a pool of workers.
func RunCampaign(id string, runs, workers int, baseSeed int64) (CampaignResult, error) {
	e, ok := exp.ByID(id)
	if !ok {
		return CampaignResult{}, fmt.Errorf("unknown experiment %s", id)
	}
	var busy atomic.Int64
	c := harness.Campaign{Runs: runs, Parallel: workers, BaseSeed: baseSeed}
	rep := c.RunFunc(e.ID, e.Title, func(seed int64) exp.Result {
		t0 := time.Now()
		defer func() { busy.Add(int64(time.Since(t0))) }()
		return e.Run(seed)
	})
	res := CampaignResult{ID: id, Failures: len(rep.Failures), Counts: make(Counts), ReplicaBusy: time.Duration(busy.Load())}
	for _, m := range rep.Metrics {
		if !strings.HasPrefix(m.Name, "ctr/") {
			continue
		}
		k := layerKey(m.Name)
		for _, v := range m.Values {
			res.Counts[k] += uint64(v)
		}
	}
	var buf bytes.Buffer
	if err := harness.WriteJSON(&buf, baseSeed, runs, []*harness.Report{rep}); err != nil {
		return res, fmt.Errorf("campaign %s: %w", id, err)
	}
	res.JSON = buf.Bytes()
	return res, nil
}
