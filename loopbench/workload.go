package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"itdos/internal/cdr"
	"itdos/internal/cluster"
	"itdos/internal/orb"
	"itdos/internal/replica"
)

// workload is one traffic mix against the default deployment. An open
// loop (Rate > 0) issues Poisson arrivals for the run's --seconds; a
// closed loop keeps Conc calls outstanding until Calls have completed.
type workload struct {
	Name string
	Op   string // "add" or "echo"
	// Pool is the number of clients the load process hosts and warms up.
	Pool int
	// Rate is the open-loop arrival rate in calls/s (0 = closed loop).
	Rate float64
	// Conc and Calls shape a closed loop.
	Conc, Calls int
	// EchoSize is the echo argument length in bytes.
	EchoSize int
	// CrashAt, when positive, closes node0's transport this far into the
	// arrival window (as a share of it).
	CrashAt float64
	// Reps is how many repetitions an end-to-end run measures; an open
	// loop splits the run's --seconds of arrivals evenly over them.
	Reps int
}

// workloads are the benchmark's traffic mixes; NOTES.md says why each
// exists and why its sizes were chosen.
var workloads = []workload{
	{Name: "add-open", Op: "add", Pool: 64, Rate: 100, Reps: 3},
	{Name: "add-closed", Op: "add", Pool: 32, Conc: 32, Calls: 5000, Reps: 3},
	{Name: "echo-32k", Op: "echo", Pool: 8, Conc: 8, Calls: 400, EchoSize: 32 << 10, Reps: 5},
	{Name: "primary-crash", Op: "add", Pool: 64, Rate: 100, CrashAt: 0.4, Reps: 3},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Deployment constants: the loopback spec `itdos-cluster -init` writes.
const (
	domain      = "calc"
	callTimeout = 20 * time.Second
	loadProcess = "load"
)

// defaultSpec returns the default 3f+1 deployment (f=1) plus a load
// process hosting pool clients.
func defaultSpec(pool int) *cluster.Spec {
	spec := &cluster.Spec{
		Seed: 1, F: 1, Domain: domain, Secret: "itdos-cluster-dev",
		SendTimeoutMS: 500, MaxBatch: 16, BatchWaitMS: 2,
	}
	for i := 0; i < spec.N(); i++ {
		spec.Nodes = append(spec.Nodes, cluster.NodeSpec{Name: fmt.Sprintf("node%d", i)})
	}
	spec.Nodes = append(spec.Nodes, cluster.NodeSpec{Name: loadProcess, Pool: pool})
	return spec
}

// epoch is the origin of every timestamp the benchmark records.
var epoch = time.Now()

// inputs are one run's seeded arrivals and arguments.
type inputs struct {
	w        workload
	arrivals []time.Duration // open loop: scheduled offsets from window start
	a, b     []float64       // add operands
	echoBase string          // echo: strings are slices of this seeded text
	echoOff  []int
	crashAt  time.Duration
}

// makeInputs derives every input of a run from seed alone.
func makeInputs(w workload, seed int64, seconds float64) *inputs {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{w: w}
	n := w.Calls
	if w.Rate > 0 {
		// A Poisson process conditioned on its count: rate*window
		// arrivals at sorted uniform offsets, so every seed offers the
		// same load.
		window := time.Duration(seconds * float64(time.Second))
		n = int(math.Round(w.Rate * seconds))
		in.arrivals = make([]time.Duration, n)
		for i := range in.arrivals {
			in.arrivals[i] = time.Duration(rng.Int63n(int64(window)))
		}
		sort.Slice(in.arrivals, func(i, j int) bool { return in.arrivals[i] < in.arrivals[j] })
		if w.CrashAt > 0 {
			in.crashAt = time.Duration(w.CrashAt * float64(window))
		}
	}
	switch w.Op {
	case "echo":
		const letters = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
		base := make([]byte, 2*w.EchoSize)
		for i := range base {
			base[i] = letters[rng.Intn(len(letters))]
		}
		in.echoBase = string(base)
		in.echoOff = make([]int, n)
		for i := range in.echoOff {
			in.echoOff[i] = rng.Intn(w.EchoSize)
		}
	default:
		in.a, in.b = make([]float64, n), make([]float64, n)
		for i := range in.a {
			in.a[i], in.b[i] = rng.Float64()*1e6, rng.Float64()*1e6
		}
	}
	return in
}

// calls returns how many calls the run offers.
func (in *inputs) calls() int {
	if in.w.Rate > 0 {
		return len(in.arrivals)
	}
	return in.w.Calls
}

// call returns call i's arguments and the exact value its reply must
// decide.
func (in *inputs) call(i int) ([]cdr.Value, cdr.Value) {
	if in.w.Op == "echo" {
		prefix := fmt.Sprintf("%08d:", i)
		off := in.echoOff[i]
		s := prefix + in.echoBase[off:off+in.w.EchoSize-len(prefix)]
		return []cdr.Value{s}, s
	}
	return []cdr.Value{in.a[i], in.b[i]}, in.a[i] + in.b[i]
}

type callStatus uint8

const (
	statusUnsent callStatus = iota // never recorded: every call is issued
	statusOK
	statusError // the call failed or timed out
	statusWrong // the call decided a wrong value
)

func (s callStatus) String() string {
	return [...]string{"unsent", "ok", "error", "wrong"}[s]
}

// callRec is one call's clock: scheduled arrival (open loop) or issue
// (closed loop), issue and completion, all since epoch.
type callRec struct {
	client              int
	sched, issued, done time.Duration
	status              callStatus
	err                 string
}

// deployment is one built cluster with its warm-up done.
type deployment struct {
	cl      *cluster.InProcCluster
	load    *cluster.Node
	clients []string
	recs    map[string]*recorder // traced builds only
	setup   time.Duration
	warmMs  []float64
}

// deploy builds and starts the cluster and warms it: one verified call
// per client, which opens that client's Group Manager connection.
func deploy(w workload, traced bool) (*deployment, error) {
	t0 := time.Now()
	spec := defaultSpec(w.Pool)
	d := &deployment{}
	var optsFor func(string) cluster.NodeOptions
	if traced {
		d.recs = map[string]*recorder{}
		for _, nd := range spec.Nodes {
			// One router each: its cache lives on that node's loop.
			d.recs[nd.Name] = &recorder{process: nd.Name, domain: domain, route: router(spec)}
		}
		optsFor = func(process string) cluster.NodeOptions {
			rec := d.recs[process]
			return cluster.NodeOptions{
				Servant: func(int) orb.Servant { return rec.servant(cluster.CalcServant()) },
				Tweak: func(cfg *replica.SystemConfig) {
					cfg.Transport = &tracedTransport{Transport: cfg.Transport, rec: rec}
				},
			}
		}
	}
	cl, err := cluster.StartInProc(spec, optsFor)
	if err != nil {
		return nil, fmt.Errorf("start cluster: %w", err)
	}
	d.cl = cl
	d.load = cl.Nodes[loadProcess]
	d.clients = d.load.LocalClients()
	ref := cluster.CalcRef(domain)
	d.warmMs = make([]float64, len(d.clients))
	errs := make([]error, len(d.clients))
	var wg sync.WaitGroup
	for i, c := range d.clients {
		wg.Add(1)
		go func(i int, c string) {
			defer wg.Done()
			t := time.Now()
			vals, err := d.load.Call(c, ref, "add", []cdr.Value{1.0, 2.0}, callTimeout)
			d.warmMs[i] = ms(time.Since(t))
			if err == nil && (len(vals) != 1 || vals[0] != cdr.Value(3.0)) {
				err = fmt.Errorf("warm-up add decided %v, want 3", vals)
			}
			errs[i] = err
		}(i, c)
	}
	wg.Wait()
	d.setup = time.Since(t0)
	for i, err := range errs {
		if err != nil {
			cl.Close()
			return nil, fmt.Errorf("warm-up %s: %w", d.clients[i], err)
		}
	}
	return d, nil
}

// rep is one repetition of a workload: a fresh deployment, its set-up
// time, and the calls of one measured window.
type rep struct {
	setup    time.Duration
	warmMs   []float64
	calls    []callRec
	window   time.Duration
	cpu      time.Duration
	rt0, rt1 runtimeSample
	crashT   time.Duration // since epoch; 0 without a crash
	tr       *traceResult  // traced repetitions only
}

// runResult is one benchmark run: reps repetitions of one workload.
type runResult struct {
	w       workload
	reps    []*rep
	peakRSS float64 // MiB, process-wide, read after the last repetition
}

// run measures reps repetitions of w, each on a fresh deployment with
// inputs derived from seed and the repetition index. An open loop offers
// window seconds of arrivals in each repetition.
func run(w workload, seed int64, window float64, reps int, traced bool) (*runResult, error) {
	res := &runResult{w: w}
	for k := 0; k < reps; k++ {
		in := makeInputs(w, seed*1000+int64(k), window)
		runtime.GC()
		r, err := runRep(in, traced)
		if err != nil {
			return nil, fmt.Errorf("repetition %d: %w", k, err)
		}
		res.reps = append(res.reps, r)
	}
	var err error
	if res.peakRSS, err = peakRSSMiB(); err != nil {
		return nil, err
	}
	return res, nil
}

// runRep deploys the cluster, drives one window of in through it and
// checks every decided value.
func runRep(in *inputs, traced bool) (*rep, error) {
	d, err := deploy(in.w, traced)
	if err != nil {
		return nil, err
	}
	closed := false
	defer func() {
		if !closed {
			d.cl.Close()
		}
	}()
	r := &rep{setup: d.setup, warmMs: d.warmMs}

	var marks map[string]mark
	if traced {
		if marks, err = markAll(d); err != nil {
			return nil, err
		}
	}

	r.calls = make([]callRec, in.calls())
	r.rt0 = readRuntime()
	cpu0 := cpuTime()
	start := time.Now()
	var crashWG sync.WaitGroup
	if in.crashAt > 0 {
		node0 := d.cl.Nodes["node0"]
		crashWG.Add(1)
		go func() {
			defer crashWG.Done()
			time.Sleep(time.Until(start.Add(in.crashAt)))
			r.crashT = time.Since(epoch)
			node0.Tr.Close()
		}()
	}
	if in.w.Rate > 0 {
		openLoop(d, in, start, r.calls)
	} else {
		closedLoop(d, in, r.calls)
	}
	crashWG.Wait()
	r.cpu = cpuTime() - cpu0
	r.rt1 = readRuntime()
	startT := start.Sub(epoch)
	for _, c := range r.calls {
		if c.done-startT > r.window {
			r.window = c.done - startT
		}
	}
	if traced {
		d.cl.Close()
		closed = true
		if r.tr, err = collectTrace(d, marks, r.calls); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// doCall issues call i through client k and records its clock and
// verdict.
func doCall(d *deployment, in *inputs, i, k int, sched time.Duration, rec *callRec) {
	args, want := in.call(i)
	rec.client, rec.sched = k, sched
	rec.issued = time.Since(epoch)
	if sched < 0 {
		rec.sched = rec.issued
	}
	vals, err := d.load.Call(d.clients[k], cluster.CalcRef(domain), in.w.Op, args, callTimeout)
	rec.done = time.Since(epoch)
	switch {
	case err != nil:
		rec.status, rec.err = statusError, err.Error()
	case len(vals) != 1 || vals[0] != want:
		rec.status, rec.err = statusWrong, fmt.Sprintf("%s decided a wrong value", in.w.Op)
	default:
		rec.status = statusOK
	}
}

// openLoop issues every scheduled arrival from one generator goroutine,
// round-robin over the client pool. Each call's clock starts at its
// scheduled arrival, so generator lag counts as latency.
func openLoop(d *deployment, in *inputs, start time.Time, recs []callRec) {
	var wg sync.WaitGroup
	startT := start.Sub(epoch)
	for i, at := range in.arrivals {
		if wait := time.Until(start.Add(at)); wait > 0 {
			time.Sleep(wait)
		}
		wg.Add(1)
		go func(i int, at time.Duration) {
			defer wg.Done()
			doCall(d, in, i, i%len(d.clients), startT+at, &recs[i])
		}(i, at)
	}
	wg.Wait()
}

// closedLoop keeps Conc calls outstanding, one per client, until Calls
// have been issued.
func closedLoop(d *deployment, in *inputs, recs []callRec) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < in.w.Conc; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(recs) {
					return
				}
				doCall(d, in, i, k, -1, &recs[i])
			}
		}(k)
	}
	wg.Wait()
}

// clientIndex maps an identity under a pool client ("<client>/inbox",
// "<client>/tx/<domain>") to the client's index, -1 for other identities.
func clientIndex(clients []string) func(node string) int {
	idx := make(map[string]int, len(clients))
	for i, c := range clients {
		idx[c] = i
	}
	return func(node string) int {
		name, _, _ := strings.Cut(node, "/")
		if i, ok := idx[name]; ok {
			return i
		}
		return -1
	}
}
