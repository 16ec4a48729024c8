package main

import (
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{10000, 999}, // p99.9 leaves exactly 10 beyond
		{9999, 990},
		{1000, 990}, // the benchmark's floor for latency_p99_ms
		{999, 900},
		{100, 900},
		{20, 500},
		{19, 0},
		{0, 0},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 1000..1, unsorted
	}
	if got := percentile(xs, 990); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	if got := median(xs); got != 500 {
		t.Errorf("median of 1..1000 = %v, want 500", got)
	}
	if got := percentile(nil, 500); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
}

func TestCorrectToleratesOnlyOutageFailures(t *testing.T) {
	sec := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
	call := func(sched, done float64, st callStatus) callRec {
		return callRec{sched: sec(sched), done: sec(done), status: st}
	}
	crash := workload{Name: "crash", CrashAt: 0.4}
	// node0 closes at 4 s; the first call that arrived after it completes
	// at 5 s, so the outage runs from 4 s to 5 s.
	crashRep := func(extra ...callRec) *rep {
		calls := append([]callRec{call(1, 1.01, statusOK), call(4.5, 5, statusOK)}, extra...)
		return &rep{calls: calls, crashT: sec(4)}
	}
	for _, tc := range []struct {
		name string
		w    workload
		p    *rep
		want bool
	}{
		{"clean", workload{Name: "open"}, crashRep(), true},
		{"error without crash", workload{Name: "open"}, &rep{calls: []callRec{call(1, 2, statusError)}}, false},
		{"timeout across the outage", crash, crashRep(call(3.9, 24, statusError)), true},
		{"error before the crash", crash, crashRep(call(1, 2, statusError)), false},
		{"error after recovery", crash, crashRep(call(6, 7, statusError)), false},
		{"wrong value in the outage", crash, crashRep(call(4.2, 4.9, statusWrong)), false},
		{"no recovery", crash, &rep{calls: []callRec{call(4.5, 25, statusError)}, crashT: sec(4)}, false},
	} {
		r := &runResult{w: tc.w, reps: []*rep{tc.p}}
		if got := r.correct(); got != tc.want {
			t.Errorf("%s: correct() = %v, want %v", tc.name, got, tc.want)
		}
	}
}
