package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"itdos/internal/cdr"
	"itdos/internal/cluster"
	"itdos/internal/orb"
	"itdos/internal/pbft"
	"itdos/internal/transport"
)

// tagClass is what one message was: a PBFT tag (pbft.MsgType values
// 1..11), a SMIOP envelope to an inbox address, or anything else.
type tagClass uint8

const (
	classOther tagClass = 0
	classInbox tagClass = 12
)

// tagMask is a set of tagClass values.
type tagMask uint16

func (m tagMask) has(c tagClass) bool { return m&(1<<c) != 0 }

// classOf classifies a payload addressed to node id to: inbox addresses
// carry SMIOP envelopes, everything else leads with a PBFT tag octet.
func classOf(to string, payload []byte) tagClass {
	if strings.HasSuffix(to, "/inbox") {
		return classInbox
	}
	if len(payload) == 0 || payload[0] < byte(pbft.MTRequest) || payload[0] > byte(pbft.MTFetchEntry) {
		return classOther
	}
	return tagClass(payload[0])
}

// classify names the layer bucket of one Receive: by the receiving
// identity's role, the tag it received and the tags it sent during the
// call. A domain replica's COMMIT that multicast a CHECKPOINT took a
// checkpoint; one that sent client replies executed a batch.
func classify(node, domain string, in tagClass, outs tagMask) string {
	switch {
	case strings.HasPrefix(node, "gm/"):
		return "groupmgr"
	case strings.HasPrefix(node, domain+"/") && strings.HasSuffix(node, "/inbox"):
		return "replica.element_inbox"
	case strings.HasSuffix(node, "/inbox"):
		return "replica.inbox"
	case strings.HasSuffix(node, "/tx/"+domain):
		return "pbft_client.reply"
	case !isDomainReplica(node, domain):
		return "other"
	}
	switch pbft.MsgType(in) {
	case pbft.MTRequest:
		return "pbft.request"
	case pbft.MTPrePrepare:
		return "pbft.preprepare"
	case pbft.MTPrepare:
		return "pbft.prepare"
	case pbft.MTCommit:
		switch {
		case outs.has(tagClass(pbft.MTCheckpoint)):
			return "pbft.commit_ckpt"
		case outs.has(classInbox):
			return "pbft.commit_exec"
		}
		return "pbft.commit"
	case pbft.MTCheckpoint:
		return "pbft.checkpoint"
	case pbft.MTViewChange, pbft.MTNewView:
		return "pbft.viewchange"
	}
	return "pbft.other"
}

// isDomainReplica reports whether node is "<domain>/r<digits>".
func isDomainReplica(node, domain string) bool {
	rest, ok := strings.CutPrefix(node, domain+"/r")
	if !ok || rest == "" {
		return false
	}
	for _, c := range rest {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}

// hspan is one Receive call: the receiving identity, what it received,
// what it sent while handling it, and when (since epoch).
type hspan struct {
	node       string
	in         tagClass
	outs       tagMask
	start, end time.Duration
}

// recorder collects one process's traced-run measurements. Every field is
// touched only on that process's transport loop goroutine (or the client
// and ORB coroutines it hands off to), so it needs no lock; the
// benchmark reads it through Tr.Post or after the node is closed.
type recorder struct {
	process string
	domain  string
	route   func(id string) string

	cur   *hspan
	spans []hspan

	sends, multicasts, bytes uint64
	clientRequests           uint64
	orbCalls                 uint64
	orbTime                  time.Duration
}

// mark is a recorder's counter state at the start of the measured window.
type mark struct {
	spans                                int
	sends, multicasts, bytes, clientReqs uint64
	orbCalls                             uint64
	orbTime                              time.Duration
	counters                             map[string]uint64
}

func (r *recorder) mark(counters map[string]uint64) mark {
	return mark{
		spans: len(r.spans), sends: r.sends, multicasts: r.multicasts, bytes: r.bytes,
		clientReqs: r.clientRequests, orbCalls: r.orbCalls, orbTime: r.orbTime,
		counters: counters,
	}
}

// countSend records one outbound payload handed to the transport.
func (r *recorder) countSend(from, to string, payload []byte, copies int) {
	r.bytes += uint64(len(payload) * copies)
	c := classOf(to, payload)
	if r.cur != nil {
		r.cur.outs |= 1 << c
	}
	if c == tagClass(pbft.MTRequest) && strings.HasSuffix(from, "/tx/"+r.domain) && !strings.HasPrefix(from, "gm/") {
		r.clientRequests++
	}
}

// tracedTransport wraps one process's transport: it times every Receive
// of a hosted identity and counts the sends hosted identities issue.
type tracedTransport struct {
	transport.Transport
	rec *recorder
}

func (t *tracedTransport) hosted(id transport.NodeID) bool {
	return t.rec.route(string(id)) == t.rec.process
}

func (t *tracedTransport) AddNode(id transport.NodeID, h transport.Handler) {
	rec, node := t.rec, string(id)
	t.Transport.AddNode(id, transport.HandlerFunc(func(from transport.NodeID, payload []byte) {
		sp := hspan{node: node, in: classOf(node, payload), start: time.Since(epoch)}
		rec.cur = &sp
		h.Receive(from, payload)
		rec.cur = nil
		sp.end = time.Since(epoch)
		rec.spans = append(rec.spans, sp)
	}))
}

func (t *tracedTransport) Send(from, to transport.NodeID, payload []byte) {
	if t.hosted(from) {
		t.rec.sends++
		t.rec.countSend(string(from), string(to), payload, 1)
	}
	t.Transport.Send(from, to, payload)
}

func (t *tracedTransport) Multicast(from transport.NodeID, g transport.GroupID, payload []byte) {
	if t.hosted(from) {
		members := t.Transport.GroupMembers(g)
		to := ""
		if len(members) > 0 {
			to = string(members[0])
		}
		t.rec.multicasts++
		t.rec.countSend(string(from), to, payload, len(members))
	}
	t.Transport.Multicast(from, g, payload)
}

// servant wraps a domain servant to time each upcall.
func (r *recorder) servant(inner orb.Servant) orb.Servant {
	return orb.ServantFunc(func(ctx *orb.CallContext, op string, args []cdr.Value) ([]cdr.Value, error) {
		t0 := time.Now()
		out, err := inner.Invoke(ctx, op, args)
		r.orbTime += time.Since(t0)
		r.orbCalls++
		return out, err
	})
}

// router returns the process hosting each identity under spec, by the
// same longest-prefix rule the TCP transport routes with.
func router(spec *cluster.Spec) func(id string) string {
	type entry struct{ prefix, process string }
	var entries []entry
	for proc, prefixes := range spec.Hosts() {
		for _, p := range prefixes {
			entries = append(entries, entry{p, proc})
		}
	}
	cache := map[string]string{}
	return func(id string) string {
		if proc, ok := cache[id]; ok {
			return proc
		}
		best, bestLen := "", -1
		for _, e := range entries {
			if len(e.prefix) > bestLen && (id == e.prefix || strings.HasPrefix(id, e.prefix+"/")) {
				best, bestLen = e.process, len(e.prefix)
			}
		}
		cache[id] = best
		return best
	}
}

// readCounters returns a node's obs registry counters. The registry has
// no lock, so a live node is read on its own loop; a closed node is read
// directly.
func readCounters(n *cluster.Node, live bool) (map[string]uint64, error) {
	var buf bytes.Buffer
	var err error
	if live {
		done := make(chan struct{})
		n.Tr.Post(func() {
			err = n.Metrics.WriteJSON(&buf)
			close(done)
		})
		<-done
	} else {
		err = n.Metrics.WriteJSON(&buf)
	}
	if err != nil {
		return nil, fmt.Errorf("read %s metrics: %w", n.Process, err)
	}
	var out struct {
		Counters map[string]uint64 `json:"counters"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		return nil, fmt.Errorf("parse %s metrics: %w", n.Process, err)
	}
	return out.Counters, nil
}

// linkSpans attributes handler spans to calls where the benchmark can: a
// client's own handlers (its inbox and its PBFT client) while that client
// has exactly one call outstanding. It returns the call index per span,
// -1 where unattributed.
func linkSpans(spans []hspan, calls []callRec, clientOf func(node string) int) []int {
	byClient := map[int][]int{}
	for i, c := range calls {
		byClient[c.client] = append(byClient[c.client], i)
	}
	links := make([]int, len(spans))
	for si, sp := range spans {
		links[si] = -1
		cl := clientOf(sp.node)
		if cl < 0 {
			continue
		}
		found := -1
		for _, ci := range byClient[cl] {
			c := calls[ci]
			if c.issued <= sp.start && sp.start <= c.done {
				if found >= 0 {
					found = -2
					break
				}
				found = ci
			}
		}
		if found >= 0 {
			links[si] = found
		}
	}
	return links
}

// writeTrace writes the traced run's spans as JSON lines: one root span
// per call, then one span per Receive.
func writeTrace(path string, w workload, clients []string, calls []callRec, tr *traceResult) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	for i, c := range calls {
		if err := enc.Encode(map[string]any{
			"kind": "call", "call": i, "client": clients[c.client], "op": w.Op,
			"scheduled_us": us(c.sched), "issued_us": us(c.issued), "completed_us": us(c.done),
			"status": c.status.String(),
		}); err != nil {
			return err
		}
	}
	for i, sp := range tr.spans {
		var outs []string
		for c := tagClass(0); c <= classInbox; c++ {
			if sp.outs.has(c) {
				outs = append(outs, c.String())
			}
		}
		rec := map[string]any{
			"kind": "receive", "process": tr.procs[i], "node": sp.node,
			"in": sp.in.String(), "out": outs,
			"start_us": us(sp.start), "end_us": us(sp.end),
		}
		if tr.links[i] >= 0 {
			rec["call"] = tr.links[i]
		}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}

func (c tagClass) String() string {
	switch c {
	case classInbox:
		return "SMIOP"
	case classOther:
		return "OTHER"
	}
	return pbft.MsgType(c).String()
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// markAll records every node's counter state at the start of the
// measured window, on each node's own loop.
func markAll(d *deployment) (map[string]mark, error) {
	marks := make(map[string]mark, len(d.cl.Nodes))
	for proc, n := range d.cl.Nodes {
		counters, err := readCounters(n, true)
		if err != nil {
			return nil, err
		}
		rec := d.recs[proc]
		done := make(chan mark)
		n.Tr.Post(func() { done <- rec.mark(counters) })
		marks[proc] = <-done
	}
	return marks, nil
}

// traceResult is the traced window's raw material, summed over nodes.
type traceResult struct {
	spans []hspan
	procs []string // process of each span
	links []int    // call of each span, -1 when unattributed

	sends, multicasts, bytes, clientReqs, orbCalls uint64
	orbTime                                        time.Duration
	// counters holds each registry counter's window delta summed over
	// nodes; viewChanges is the most view changes any domain replica
	// started.
	counters    map[string]uint64
	viewChanges uint64
}

// collectTrace gathers the window's spans and counter deltas from a
// closed deployment.
func collectTrace(d *deployment, marks map[string]mark, calls []callRec) (*traceResult, error) {
	tr := &traceResult{counters: map[string]uint64{}}
	for _, proc := range sortedKeys(d.cl.Nodes) {
		counters, err := readCounters(d.cl.Nodes[proc], false)
		if err != nil {
			return nil, err
		}
		rec, m := d.recs[proc], marks[proc]
		for _, sp := range rec.spans[m.spans:] {
			tr.spans = append(tr.spans, sp)
			tr.procs = append(tr.procs, proc)
		}
		tr.sends += rec.sends - m.sends
		tr.multicasts += rec.multicasts - m.multicasts
		tr.bytes += rec.bytes - m.bytes
		tr.clientReqs += rec.clientRequests - m.clientReqs
		tr.orbCalls += rec.orbCalls - m.orbCalls
		tr.orbTime += rec.orbTime - m.orbTime
		for k, v := range counters {
			tr.counters[k] += v - m.counters[k]
		}
		if vc := counters[vcKey] - m.counters[vcKey]; vc > tr.viewChanges {
			tr.viewChanges = vc
		}
	}
	tr.links = linkSpans(tr.spans, calls, clientIndex(d.clients))
	return tr, nil
}

// vcKey is the domain group's view-change counter.
const vcKey = "pbft_view_changes_total{group=" + domain + "}"
