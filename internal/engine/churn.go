package engine

import (
	"context"
	"sync"
	"time"

	"repro/internal/trace"
)

// PlayChurn drives the cluster's Suspend/Resume calls from availability
// traces, one per volatile worker, compressing each simulated second into
// compression of wall time — the live-engine equivalent of the simulator's
// trace-driven node model (time.Millisecond turns the paper's 8-hour traces
// into ~29 s). It returns when every trace has played out or ctx ends, and
// leaves no worker suspended.
func PlayChurn(ctx context.Context, c *Cluster, traces []trace.Trace, compression time.Duration) {
	var wg sync.WaitGroup
	for w, tr := range traces[:min(len(traces), c.cfg.VolatileWorkers)] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			for _, iv := range tr.Outages {
				if sleepUntil(ctx, start.Add(scaleDur(iv.Start, compression))) != nil {
					return
				}
				// w is a volatile worker of c, which both calls accept.
				_ = c.Suspend(w)
				err := sleepUntil(ctx, start.Add(scaleDur(iv.End, compression)))
				_ = c.Resume(w)
				if err != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
}

// scaleDur converts simulated seconds to wall time at the given
// compression.
func scaleDur(simSeconds float64, perSimSecond time.Duration) time.Duration {
	return time.Duration(simSeconds * float64(perSimSecond))
}

// sleepUntil waits until the deadline or context end.
func sleepUntil(ctx context.Context, deadline time.Time) error {
	d := time.Until(deadline)
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
