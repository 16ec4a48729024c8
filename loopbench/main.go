// Command loopbench is the repository's benchmark. It boots the default
// 3f+1 deployment (f=1, MaxBatch 16, BatchWaitMS 2, SendTimeoutMS 500)
// in one OS process over loopback TCP, drives one workload through it,
// checks every decided value, and prints every metric with its unit. The
// last line of standard output is one JSON object.
//
//	loopbench --workload add-closed --seed 1 --seconds 30 --trace 0
//
// --trace 0 measures the end-to-end metrics, with nothing wrapped, over
// the workload's repetitions. --trace 1 runs the same untraced
// repetitions and then one traced repetition, and prints the per-layer
// metrics measured at each layer's public entry points, the wall-clock
// figures of the untraced repetitions and the tracing overhead; it writes the
// traced repetition's spans to --trace-out. --workload all runs every
// workload in turn, each in a process of its own, printing one JSON line
// each. NOTES.md documents the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// table is an ordered metric set.
type table struct {
	names []string
	m     map[string]metric
}

func (t *table) add(name string, v float64, unit string) {
	if t.m == nil {
		t.m = map[string]metric{}
	}
	t.names = append(t.names, name)
	t.m[name] = metric{Value: v, Unit: unit}
}

func main() {
	if err := realMain(); err != nil {
		fmt.Fprintln(os.Stderr, "loopbench:", err)
		os.Exit(2)
	}
}

func realMain() error {
	fs := flag.NewFlagSet("loopbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name, or all: "+workloadNames())
	seed := fs.Int64("seed", 1, "seed of arrivals and arguments")
	seconds := fs.Float64("seconds", 20, "open-loop arrival time of a run, split evenly over its repetitions")
	trace := fs.Int("trace", 0, "1 = per-layer traced run, 0 = end-to-end run")
	traceOut := fs.String("trace-out", "", "span file of a traced run (default .bench_build/loopbench/trace-<workload>-<seed>.jsonl)")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return err
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	if *name == "all" {
		if *traceOut != "" {
			return fmt.Errorf("--trace-out names one workload's spans; it cannot be used with --workload all")
		}
		return runAll(*seed, *seconds, *trace)
	}
	w, ok := findWorkload(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q (have %s, all)", *name, workloadNames())
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	path := *traceOut
	if path == "" {
		path = fmt.Sprintf(".bench_build/loopbench/trace-%s-%d.jsonl", w.Name, *seed)
	}
	res, err := runOne(w, *seed, *seconds, *trace == 1, path)
	if err != nil {
		return fmt.Errorf("%s: %w", w.Name, err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
	return nil
}

// runAll runs every workload in a process of its own, so that each starts
// on a fresh heap and peak_rss_mb is that workload's own peak. It exits 1
// when a workload's run was not correct.
func runAll(seed int64, seconds float64, trace int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	correct := true
	for _, w := range workloads {
		cmd := exec.Command(self, "--workload", w.Name, "--seed", fmt.Sprint(seed),
			"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace))
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		err := cmd.Run()
		var exit *exec.ExitError
		switch {
		case errors.As(err, &exit) && exit.ExitCode() == 1:
			correct = false
		case err != nil:
			return fmt.Errorf("%s: %w", w.Name, err)
		}
	}
	if !correct {
		os.Exit(1)
	}
	return nil
}

// runOne measures one workload and prints its metrics table.
func runOne(w workload, seed int64, seconds float64, traced bool, tracePath string) (result, error) {
	var res result
	var out table
	if !traced {
		r, err := run(w, seed, seconds/float64(w.Reps), w.Reps, false)
		if err != nil {
			return res, err
		}
		report(os.Stdout, "end-to-end", r)
		out = endToEnd(r)
		res = result{Correct: r.correct(), Attempted: r.attempted(), Failed: r.failed()}
	} else {
		// The untraced end-to-end run, then one traced repetition with the
		// inputs of its first; the untraced run gives the wall-clock
		// figures and the baseline of trace.overhead_share.
		window := seconds / float64(w.Reps)
		base, err := run(w, seed, window, w.Reps, false)
		if err != nil {
			return res, err
		}
		traced, err := run(w, seed, window, 1, true)
		if err != nil {
			return res, err
		}
		report(os.Stdout, "untraced", base)
		report(os.Stdout, "traced", traced)
		tr := traced.reps[0]
		if err := writeTrace(tracePath, w, clientNames(w), tr.calls, tr.tr); err != nil {
			return res, fmt.Errorf("write trace: %w", err)
		}
		fmt.Printf("spans: %d calls, %d handler spans written to %s\n", len(tr.calls), len(tr.tr.spans), tracePath)
		out = perLayer(w, tr, base)
		res = result{
			Correct:   base.correct() && traced.correct() && (w.CrashAt == 0 || tr.tr.viewChanges >= 1),
			Attempted: base.attempted() + traced.attempted(),
			Failed:    base.failed() + traced.failed(),
		}
	}
	for _, n := range out.names {
		fmt.Printf("%-30s %16.4f %s\n", n, out.m[n].Value, out.m[n].Unit)
	}
	res.Metrics = out.m
	return res, nil
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	return strings.Join(names, ", ")
}

// clientNames lists the pool clients of w's deployment in index order.
func clientNames(w workload) []string { return defaultSpec(w.Pool).Clients() }

// counts tallies call outcomes.
func (r *rep) counts() (ok, errs, wrong int) {
	for _, c := range r.calls {
		switch c.status {
		case statusOK:
			ok++
		case statusWrong:
			wrong++
		default:
			errs++
		}
	}
	return ok, errs, wrong
}

// failed counts errors, timeouts and wrong decided values.
func (r *rep) failed() int {
	_, errs, wrong := r.counts()
	return errs + wrong
}

func (r *rep) completions() float64 {
	ok, _, _ := r.counts()
	return float64(ok)
}

func (r *rep) throughput() float64   { return r.completions() / r.window.Seconds() }
func (r *rep) cpuMsPerCall() float64 { return ms(r.cpu) / r.completions() }

// latencies returns each verified call's latency in ms, measured from its
// scheduled arrival (open loop) or issue (closed loop).
func (r *rep) latencies() []float64 {
	var out []float64
	for _, c := range r.calls {
		if c.status == statusOK {
			out = append(out, ms(c.done-c.sched))
		}
	}
	return out
}

// genLags returns how late the generator issued each open-loop arrival
// (nil for a closed loop).
func (r *rep) genLags(w workload) []float64 {
	if w.Rate == 0 {
		return nil
	}
	out := make([]float64, 0, len(r.calls))
	for _, c := range r.calls {
		out = append(out, ms(c.issued-c.sched))
	}
	return out
}

// outage returns the time from the crash to the first verified
// completion of a call that arrived after it, -1 when none did.
func (r *rep) outage() float64 {
	best := time.Duration(-1)
	for _, c := range r.calls {
		if c.status == statusOK && c.sched > r.crashT {
			if d := c.done - r.crashT; best < 0 || d < best {
				best = d
			}
		}
	}
	if best < 0 {
		return -1
	}
	return ms(best)
}

// each collects f over the run's repetitions.
func (r *runResult) each(f func(*rep) float64) []float64 {
	out := make([]float64, len(r.reps))
	for i, p := range r.reps {
		out[i] = f(p)
	}
	return out
}

func (r *runResult) attempted() int {
	n := 0
	for _, p := range r.reps {
		n += len(p.calls)
	}
	return n
}

func (r *runResult) failed() int {
	n := 0
	for _, p := range r.reps {
		n += p.failed()
	}
	return n
}

// latencies pools every repetition's verified-call latencies.
func (r *runResult) latencies() []float64 {
	var out []float64
	for _, p := range r.reps {
		out = append(out, p.latencies()...)
	}
	return out
}

// correct holds when every call decided its exact value, except that a
// call outstanding during a crash's outage may time out, and, with a
// crash, every repetition resumed service for calls that arrived after it.
func (r *runResult) correct() bool {
	for _, p := range r.reps {
		outage := p.outage()
		if r.w.CrashAt > 0 && !(outage > 0) {
			return false
		}
		recovered := p.crashT + time.Duration(outage*float64(time.Millisecond))
		for _, c := range p.calls {
			inOutage := r.w.CrashAt > 0 && c.sched < recovered && c.done > p.crashT
			if c.status != statusOK && !(c.status == statusError && inOutage) {
				return false
			}
		}
	}
	return true
}

// endToEnd builds the --trace 0 metric set: medians over repetitions.
// Wall-clock throughput and latency are not in it (NOTES.md says why);
// the report prints them and the traced run carries them.
func endToEnd(r *runResult) table {
	var t table
	t.add("setup_s", median(r.each(func(p *rep) float64 { return p.setup.Seconds() })), "s")
	t.add("cpu_ms_per_call", median(r.each((*rep).cpuMsPerCall)), "ms")
	t.add("peak_rss_mb", r.peakRSS, "MiB")
	return t
}

// report prints a run's outcome for a human reader.
func report(f *os.File, label string, r *runResult) {
	lat := r.latencies()
	fmt.Fprintf(f, "%s run of %s: %d repetition(s), %d calls attempted, %d failed\n",
		label, r.w.Name, len(r.reps), r.attempted(), r.failed())
	for i, p := range r.reps {
		ok, errs, wrong := p.counts()
		lat := p.latencies()
		fmt.Fprintf(f, "  rep %d: setup %.3f s, %d verified, %d errors, %d wrong, %.1f calls/s, %.3f cpu ms/call, p50 %.3f ms",
			i, p.setup.Seconds(), ok, errs, wrong, p.throughput(), p.cpuMsPerCall(), percentile(lat, 500))
		if lags := p.genLags(r.w); lags != nil {
			fmt.Fprintf(f, ", generator lag p99 %.3f ms max %.3f ms", percentile(lags, 990), maxOf(lags))
		}
		if r.w.CrashAt > 0 {
			fmt.Fprintf(f, ", outage %.3f ms", p.outage())
		}
		fmt.Fprintln(f)
		for _, c := range p.calls {
			if c.status == statusError || c.status == statusWrong {
				fmt.Fprintf(f, "  first failure: %s\n", c.err)
				break
			}
		}
	}
	fmt.Fprintf(f, "  throughput %.3f calls/s (median repetition); latency over %d pooled samples: p50 %.3f ms, p99 %.3f ms; failed_share %.4f\n",
		median(r.each((*rep).throughput)), len(lat), percentile(lat, 500), percentile(lat, 990), float64(r.failed())/float64(r.attempted()))
	if pm := tailPercentile(len(lat)); pm < 990 {
		fmt.Fprintf(f, "  warning: fewer than %d samples beyond p99 (highest supported: p%.1f)\n",
			minBeyond, float64(pm)/10)
	}
}

// perLayer builds the --trace 1 metric set from the traced repetition r.
// The untraced run of the same seed is the overhead baseline, and gives the
// wall-clock throughput and latency, outage, failed share and sample count
// without the tracer's cost.
func perLayer(w workload, r *rep, base *runResult) table {
	var t table
	tr := r.tr
	calls := r.completions()
	per := func(v float64) float64 { return v / calls }

	// Handler time per bucket, domain replicas first.
	sum := map[string]time.Duration{}
	cnt := map[string]int{}
	var replicaBusy time.Duration
	for _, sp := range tr.spans {
		b := classify(sp.node, domain, sp.in, sp.outs)
		sum[b] += sp.end - sp.start
		cnt[b]++
		if strings.HasPrefix(b, "pbft.") {
			replicaBusy += sp.end - sp.start
		}
	}
	meanUs := func(buckets ...string) float64 {
		var s time.Duration
		n := 0
		for _, b := range buckets {
			s += sum[b]
			n += cnt[b]
		}
		if n == 0 {
			return 0
		}
		return float64(s) / float64(n) / float64(time.Microsecond)
	}
	t.add("pbft.request.us", meanUs("pbft.request"), "us")
	t.add("pbft.preprepare.us", meanUs("pbft.preprepare"), "us")
	t.add("pbft.prepare.us", meanUs("pbft.prepare"), "us")
	t.add("pbft.commit.us", meanUs("pbft.commit", "pbft.commit_exec", "pbft.commit_ckpt"), "us")
	t.add("pbft.commit_exec.us", meanUs("pbft.commit_exec"), "us")
	t.add("pbft.commit_ckpt.us", meanUs("pbft.commit_ckpt"), "us")
	t.add("pbft.checkpoint.us", meanUs("pbft.checkpoint"), "us")
	t.add("pbft.viewchange.us", meanUs("pbft.viewchange"), "us")
	t.add("pbft.busy_ms_per_call", per(ms(replicaBusy)), "ms")

	c := tr.counters
	group := "{group=" + domain + "}"
	batchMean := 0.0
	if b := c["pbft_batches_total"+group]; b > 0 {
		batchMean = float64(c["pbft_batched_requests_total"+group]) / float64(b)
	}
	t.add("pbft.batch_size_mean", batchMean, "requests")
	n := float64(defaultSpec(w.Pool).N())
	t.add("pbft.checkpoints_per_call", per(float64(c["pbft_checkpoints_total"+group])/n), "count")
	t.add("pbft.view_changes", float64(tr.viewChanges), "count")
	t.add("pbft.requests_sent_per_call", per(float64(tr.clientReqs)), "count")

	t.add("pbft_client.reply.us", meanUs("pbft_client.reply"), "us")
	t.add("replica.inbox.us", meanUs("replica.inbox"), "us")
	t.add("replica.inbox_msgs_per_call", per(float64(cnt["replica.inbox"])), "count")
	orbUs := 0.0
	if tr.orbCalls > 0 {
		orbUs = float64(tr.orbTime) / float64(tr.orbCalls) / float64(time.Microsecond)
	}
	t.add("orb.exec.us", orbUs, "us")
	t.add("orb.upcalls_per_call", per(float64(tr.orbCalls)), "count")

	t.add("transport.sends_per_call", per(float64(tr.sends+tr.multicasts)), "count")
	t.add("transport.bytes_per_call", per(float64(tr.bytes)), "bytes")
	t.add("transport.frames_per_call", per(float64(c["tcp_frames_sent_total"])), "count")
	t.add("transport.conn_retries", float64(c["tcp_conn_retries_total"]), "count")
	t.add("smiop.fragments_per_call", per(float64(c["smiop_fragments_total{dir=out}"])), "count")
	t.add("groupmgr.connect_ms_p50", median(append([]float64(nil), r.warmMs...)), "ms")

	gcShare := 0.0
	if d := r.rt1.totalCPU - r.rt0.totalCPU; d > 0 {
		gcShare = (r.rt1.gcCPU - r.rt0.gcCPU) / d
	}
	t.add("runtime.gc_cpu_share", gcShare, "ratio")
	t.add("runtime.alloc_bytes_per_call", per(r.rt1.allocBytes-r.rt0.allocBytes), "bytes")
	t.add("runtime.cpu_busy_share", r.cpu.Seconds()/(r.window.Seconds()*float64(runtime.GOMAXPROCS(0))), "ratio")

	lags := r.genLags(w)
	t.add("cluster.gen_lag_p99_ms", percentile(lags, 990), "ms")
	t.add("cluster.gen_lag_max_ms", maxOf(lags), "ms")
	t.add("trace.overhead_share", r.cpuMsPerCall()/median(base.each((*rep).cpuMsPerCall))-1, "ratio")

	// The program's own figures, from the untraced run: medians over its
	// repetitions, and percentiles of its pooled calls.
	lat := base.latencies()
	t.add("throughput_cps", median(base.each((*rep).throughput)), "calls/s")
	t.add("latency_p50_ms", percentile(lat, 500), "ms")
	t.add("latency_p99_ms", percentile(lat, 990), "ms")
	outage := 0.0
	if w.CrashAt > 0 {
		outage = median(base.each((*rep).outage))
	}
	t.add("outage_ms", outage, "ms")
	t.add("failed_share", float64(base.failed())/float64(base.attempted()), "ratio")
	t.add("latency.samples", float64(len(lat)), "count")
	return t
}
