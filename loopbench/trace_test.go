package main

import (
	"testing"
	"time"

	"itdos/internal/pbft"
)

func tag(t pbft.MsgType) tagClass { return tagClass(t) }

func mask(cs ...tagClass) tagMask {
	var m tagMask
	for _, c := range cs {
		m |= 1 << c
	}
	return m
}

func TestClassify(t *testing.T) {
	for _, tc := range []struct {
		node string
		in   tagClass
		outs tagMask
		want string
	}{
		{"calc/r0", tag(pbft.MTRequest), mask(tag(pbft.MTPrePrepare)), "pbft.request"},
		{"calc/r1", tag(pbft.MTPrePrepare), mask(tag(pbft.MTPrepare)), "pbft.preprepare"},
		{"calc/r2", tag(pbft.MTPrepare), mask(tag(pbft.MTCommit)), "pbft.prepare"},
		{"calc/r3", tag(pbft.MTCommit), 0, "pbft.commit"},
		{"calc/r3", tag(pbft.MTCommit), mask(classInbox), "pbft.commit_exec"},
		// A checkpoint taken right after executing counts as a checkpoint.
		{"calc/r3", tag(pbft.MTCommit), mask(classInbox, tag(pbft.MTCheckpoint)), "pbft.commit_ckpt"},
		{"calc/r0", tag(pbft.MTCheckpoint), 0, "pbft.checkpoint"},
		{"calc/r1", tag(pbft.MTViewChange), mask(tag(pbft.MTNewView)), "pbft.viewchange"},
		{"calc/r1", tag(pbft.MTNewView), 0, "pbft.viewchange"},
		{"calc/r1", tag(pbft.MTFetchState), 0, "pbft.other"},
		{"load-c3/tx/calc", tag(pbft.MTReply), 0, "pbft_client.reply"},
		{"load-c3/inbox", classInbox, 0, "replica.inbox"},
		{"calc/r2/inbox", classInbox, 0, "replica.element_inbox"},
		{"gm/r0", tag(pbft.MTCommit), mask(classInbox), "groupmgr"},
		{"gm/r1/tx/calc", tag(pbft.MTReply), 0, "groupmgr"},
		{"calc/rx", tag(pbft.MTCommit), 0, "other"},
		{"load-c3/tx/gm", tag(pbft.MTReply), 0, "other"},
	} {
		if got := classify(tc.node, "calc", tc.in, tc.outs); got != tc.want {
			t.Errorf("classify(%s, %s, %b) = %s, want %s", tc.node, tc.in, tc.outs, got, tc.want)
		}
	}
}

func TestClassOf(t *testing.T) {
	if got := classOf("load-c0/inbox", []byte{byte(pbft.MTCommit)}); got != classInbox {
		t.Errorf("inbox payload classified %s", got)
	}
	if got := classOf("calc/r0", []byte{byte(pbft.MTPrepare), 0}); got != tag(pbft.MTPrepare) {
		t.Errorf("prepare classified %s", got)
	}
	if got := classOf("calc/r0", []byte{200}); got != classOther {
		t.Errorf("unknown tag classified %s", got)
	}
	if got := classOf("calc/r0", nil); got != classOther {
		t.Errorf("empty payload classified %s", got)
	}
}

func TestLinkSpans(t *testing.T) {
	ms := time.Millisecond
	calls := []callRec{
		{client: 0, issued: 0, done: 10 * ms, status: statusOK},
		{client: 0, issued: 5 * ms, done: 20 * ms, status: statusOK},
		{client: 1, issued: 0, done: 10 * ms, status: statusError},
	}
	spans := []hspan{
		{node: "c0/inbox", start: 2 * ms},    // only call 0 outstanding
		{node: "c0/inbox", start: 7 * ms},    // calls 0 and 1 overlap
		{node: "c0/tx/calc", start: 15 * ms}, // only call 1
		{node: "c1/inbox", start: 3 * ms},    // client 1's failed call still counts
		{node: "calc/r0", start: 3 * ms},     // replica side: never linked
		{node: "c1/inbox", start: 30 * ms},   // nothing outstanding
	}
	got := linkSpans(spans, calls, clientIndex([]string{"c0", "c1"}))
	want := []int{0, -1, 1, 2, -1, -1}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d linked to %d, want %d", i, got[i], want[i])
		}
	}
}
