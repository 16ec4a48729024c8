package cluster

import (
	"testing"
	"time"

	"itdos/internal/obs"
)

// TestRunLoadTimesFromScheduledArrival drives a short open-loop run over a
// loopback cluster: every call completes with the right value, each
// latency is observed once, and the generator's lag behind its Poisson
// schedule is reported (p99 <= max, both non-negative).
func TestRunLoadTimesFromScheduledArrival(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a loopback TCP cluster")
	}
	spec := eqSpec()
	spec.Nodes[4] = NodeSpec{Name: "load", Pool: 4}
	cl, err := StartInProc(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	hist := obs.NewRegistry().Histogram("latency_ms", LatencyBounds)
	res, err := cl.Nodes["load"].RunLoad(LoadConfig{
		Rate: 200, Total: 40, Op: "add", Timeout: 20 * time.Second, Seed: 3, Hist: hist,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 40 || res.Errors != 0 {
		t.Fatalf("completed %d, errors %d (first: %s)", res.Completed, res.Errors, res.FirstError)
	}
	if hist.Count() != 40 {
		t.Fatalf("histogram holds %d latencies, want 40", hist.Count())
	}
	if res.LagP99 < 0 || res.LagMax < res.LagP99 {
		t.Fatalf("generator lag p99 %v, max %v", res.LagP99, res.LagMax)
	}
}
