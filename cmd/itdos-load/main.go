// Command itdos-load is the open-loop workload generator for a running
// itdos-cluster deployment. It joins the cluster as the client-hosting
// process named by -node, offers calls on a Poisson arrival process at
// -rate regardless of completions, fans them across the node's client
// pool (thousands of concurrent simulated clients share the process), and
// reports wall-clock latency percentiles and achieved throughput.
//
// Usage:
//
//	itdos-load -spec cluster.json [-node load] -rate 500 -duration 10s
//	itdos-load -spec cluster.json -rate 200 -total 200 -fail-on-error
//
// -fail-on-error exits non-zero when any call failed, timed out, or
// decided a wrong value — the cluster-smoke gate.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"itdos/internal/cluster"
	"itdos/internal/obs"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "itdos-load:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("itdos-load", flag.ContinueOnError)
	specPath := fs.String("spec", "", "cluster spec file (JSON)")
	node := fs.String("node", "load", "client-hosting process name from the spec")
	rate := fs.Float64("rate", 200, "offered arrival rate, calls per second")
	total := fs.Int("total", 0, "number of arrivals to offer (overrides -duration)")
	duration := fs.Duration("duration", 5*time.Second, "offered-load span when -total is unset")
	op := fs.String("op", "add", "calculator operation to invoke (add or echo)")
	timeout := fs.Duration("timeout", 10*time.Second, "per-call wall-clock timeout")
	seed := fs.Int64("seed", 1, "arrival-process RNG seed")
	warmup := fs.Bool("warmup", true, "issue one unmeasured call per client first (warm GM connections)")
	failOnError := fs.Bool("fail-on-error", false, "exit non-zero when any call failed or timed out")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *specPath == "" {
		return fmt.Errorf("-spec is required")
	}
	spec, err := cluster.ReadSpec(*specPath)
	if err != nil {
		return err
	}
	n := *total
	if n <= 0 {
		n = int(*rate * duration.Seconds())
		if n < 1 {
			n = 1
		}
	}

	nd, err := cluster.NewNode(spec, *node, cluster.NodeOptions{})
	if err != nil {
		return err
	}
	// Create the histogram handle before Start: the registry is not locked,
	// and the transport loop may insert handles once traffic flows.
	hist := nd.Metrics.Histogram("load_call_latency_ms", cluster.LatencyBounds)
	if err := nd.Start(); err != nil {
		nd.Close()
		return err
	}
	defer nd.Close()
	fmt.Printf("itdos-load: offering %d calls at %g/s across %d clients (op=%s)\n",
		n, *rate, len(nd.LocalClients()), *op)
	res, err := nd.RunLoad(cluster.LoadConfig{
		Rate: *rate, Total: n, Op: *op, Timeout: *timeout, Seed: *seed, Hist: hist,
		Warmup: *warmup,
	})
	if err != nil {
		return err
	}
	report(res, hist)
	if *failOnError && res.Errors > 0 {
		return fmt.Errorf("%d/%d calls failed (first: %s)", res.Errors, res.Offered, res.FirstError)
	}
	return nil
}

func report(res *cluster.LoadResult, hist *obs.Histogram) {
	fmt.Printf("offered     %d\n", res.Offered)
	fmt.Printf("completed   %d\n", res.Completed)
	fmt.Printf("errors      %d\n", res.Errors)
	if res.FirstError != "" {
		fmt.Printf("first error %s\n", res.FirstError)
	}
	fmt.Printf("elapsed     %.2f s\n", res.Elapsed.Seconds())
	fmt.Printf("throughput  %.1f calls/s\n", res.Throughput())
	fmt.Printf("latency     p50 %.2f ms  p95 %.2f ms  p99 %.2f ms\n",
		hist.Quantile(0.50), hist.Quantile(0.95), hist.Quantile(0.99))
	fmt.Printf("gen lag     p99 %.2f ms  max %.2f ms\n",
		ms(res.LagP99), ms(res.LagMax))
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
