package bench

// W1: the wall-clock companion to P1. Every other experiment measures
// simulated messages in virtual time; W1 boots the full 3f+1 deployment as
// five transports over real loopback TCP sockets (four replica processes
// plus one client-pool process, all in-process via cluster.StartInProc)
// and sweeps an open-loop Poisson arrival rate across it. Latency is
// wall-clock from arrival to decided reply — connection establishment,
// ordering, voting and client-pool queueing included — so the recorded
// p50/p95/p99 and achieved throughput are hardware numbers, not simulator
// numbers. Unlike the deterministic tables, W1's measurements vary run to
// run; the pinned invariants are structural (every offered call completes,
// no wrong decisions), not the timings.

import (
	"fmt"
	"strings"
	"time"

	"itdos/internal/cluster"
	"itdos/internal/obs"
)

// w1Rates is the offered arrival-rate sweep, in calls per second.
var w1Rates = []float64{250, 500, 1000}

func w1Spec() *cluster.Spec {
	return &cluster.Spec{
		Seed:          1,
		F:             1,
		Domain:        "calc",
		Secret:        "w1-bench-secret",
		SendTimeoutMS: 500,
		MaxBatch:      16,
		BatchWaitMS:   2,
		Nodes: []cluster.NodeSpec{
			{Name: "node0"}, {Name: "node1"}, {Name: "node2"}, {Name: "node3"},
			{Name: "load", Pool: 64},
		},
	}
}

// W1 measures open-loop wall-clock latency and throughput over loopback
// TCP at three arrival rates.
func W1() (*Table, error) {
	metrics := obs.NewRegistry()
	t := &Table{
		ID:     "W1",
		Title:  "open-loop load over loopback TCP (wall clock)",
		Source: "extension; §3.2 ordering penalty, measured on real sockets",
		Headers: []string{"rate (1/s)", "offered", "completed", "errors",
			"p50", "p95", "p99", "achieved (1/s)"},
		Metrics: metrics,
	}
	var lags []string
	for _, rate := range w1Rates {
		// One second of offered load per rate keeps the sweep CI-sized.
		total := int(rate)
		hist := metrics.Histogram("w1_latency_ms", cluster.LatencyBounds,
			fmt.Sprintf("rate=%g", rate))
		res, err := runW1Rate(rate, total, hist)
		if err != nil {
			return nil, fmt.Errorf("bench: W1 rate %g: %w", rate, err)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%g", rate),
			fmt.Sprintf("%d", res.Offered),
			fmt.Sprintf("%d", res.Completed),
			fmt.Sprintf("%d", res.Errors),
			fmt.Sprintf("%.2f ms", hist.Quantile(0.50)),
			fmt.Sprintf("%.2f ms", hist.Quantile(0.95)),
			fmt.Sprintf("%.2f ms", hist.Quantile(0.99)),
			fmt.Sprintf("%.0f", res.Throughput()),
		})
		lags = append(lags, fmt.Sprintf("%g/s p99 %.2f ms max %.2f ms", rate,
			float64(res.LagP99.Microseconds())/1000, float64(res.LagMax.Microseconds())/1000))
	}
	t.Note = "Five OS-process-equivalent transports on loopback TCP; open-loop Poisson " +
		"arrivals over a 64-client pool; latency is wall-clock in ms from each call's scheduled " +
		"arrival to its decision, so generator lag is counted, not omitted. " +
		"Generator lag behind the schedule: " + strings.Join(lags, "; ") + ". " +
		"Timings vary with the host — the invariants are completed == offered and errors == 0."
	return t, nil
}

// runW1Rate boots a fresh loopback cluster and offers one second of load.
func runW1Rate(rate float64, total int, hist *obs.Histogram) (*cluster.LoadResult, error) {
	cl, err := cluster.StartInProc(w1Spec(), nil)
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	return cl.Nodes["load"].RunLoad(cluster.LoadConfig{
		Rate: rate, Total: total, Op: "add", Timeout: 20 * time.Second, Seed: 1, Hist: hist,
		Warmup: true,
	})
}

// CheckW1 is the cluster gate behind `itdos-bench -check W1`: the sweep
// must cover at least three rates, every offered call must complete, and
// no decided value may be wrong.
func CheckW1() error {
	t, err := W1()
	if err != nil {
		return err
	}
	if len(t.Rows) < 3 {
		return fmt.Errorf("W1 swept %d rates, want >= 3", len(t.Rows))
	}
	for _, row := range t.Rows {
		if row[1] != row[2] || row[3] != "0" {
			return fmt.Errorf("W1 rate %s: offered %s, completed %s, errors %s",
				row[0], row[1], row[2], row[3])
		}
	}
	return nil
}
