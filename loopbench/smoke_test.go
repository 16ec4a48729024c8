package main

import (
	"bufio"
	"os"
	"path/filepath"
	"testing"
)

// shrink returns w sized for a few seconds of work, plus the open-loop
// window of each repetition. The small pool and low open-loop rate keep
// the race detector's slowdown from overloading the cluster.
func shrink(w workload) (workload, float64) {
	w.Pool = 8
	if w.Conc > w.Pool {
		w.Conc = w.Pool
	}
	switch {
	case w.EchoSize > 0:
		w.Calls = 24
	case w.Rate == 0:
		w.Calls = 200
	default:
		w.Rate = 40
	}
	if w.CrashAt > 0 {
		return w, 2.5
	}
	return w, 1
}

func TestSmokeEachWorkload(t *testing.T) {
	for _, w := range workloads {
		w, seconds := shrink(w)
		t.Run(w.Name, func(t *testing.T) {
			r, err := run(w, 7, seconds, 2, false)
			if err != nil {
				t.Fatal(err)
			}
			if !r.correct() || r.attempted() == 0 {
				t.Fatalf("correct=%v failed=%d of %d", r.correct(), r.failed(), r.attempted())
			}
			e2e := endToEnd(r)
			for _, name := range e2e.names {
				if v := e2e.m[name].Value; !(v > 0) {
					t.Errorf("%s = %v, want > 0", name, v)
				}
			}
			if len(r.reps) != 2 {
				t.Errorf("%d repetitions, want 2", len(r.reps))
			}
		})
	}
}

func TestSmokeTraced(t *testing.T) {
	for _, name := range []string{"add-closed", "primary-crash"} {
		w, _ := findWorkload(name)
		w, seconds := shrink(w)
		t.Run(name, func(t *testing.T) {
			baseRun, err := run(w, 3, seconds, 1, false)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := run(w, 3, seconds, 1, true)
			if err != nil {
				t.Fatal(err)
			}
			if !traced.correct() {
				t.Fatalf("traced run: correct=%v failed=%d", traced.correct(), traced.failed())
			}
			r := traced.reps[0]
			pl := perLayer(w, r, baseRun)
			positive := []string{"pbft.request.us", "pbft.preprepare.us", "pbft.prepare.us",
				"pbft.commit.us", "pbft.commit_exec.us", "pbft.commit_ckpt.us",
				"pbft.busy_ms_per_call", "pbft.batch_size_mean", "pbft.requests_sent_per_call",
				"pbft_client.reply.us", "replica.inbox.us", "orb.exec.us", "transport.bytes_per_call",
				"transport.frames_per_call", "groupmgr.connect_ms_p50", "latency.samples",
				"throughput_cps", "latency_p50_ms", "latency_p99_ms"}
			if w.CrashAt > 0 {
				positive = append(positive, "pbft.view_changes", "pbft.viewchange.us", "outage_ms")
			} else if v := pl.m["pbft.view_changes"].Value; v != 0 {
				t.Errorf("pbft.view_changes = %v without a crash", v)
			}
			for _, m := range positive {
				if v := pl.m[m].Value; !(v > 0) {
					t.Errorf("%s = %v, want > 0", m, v)
				}
			}
			if v := pl.m["orb.upcalls_per_call"].Value; v != 4 && w.CrashAt == 0 {
				t.Errorf("orb.upcalls_per_call = %v, want 4 (one per element)", v)
			}

			path := filepath.Join(t.TempDir(), "trace.jsonl")
			tr := r.tr
			if err := writeTrace(path, w, clientNames(w), r.calls, tr); err != nil {
				t.Fatal(err)
			}
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			lines := 0
			for sc := bufio.NewScanner(f); sc.Scan(); {
				lines++
			}
			if want := len(r.calls) + len(tr.spans); lines != want {
				t.Errorf("trace has %d lines, want %d", lines, want)
			}
		})
	}
}
