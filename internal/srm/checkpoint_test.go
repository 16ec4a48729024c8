package srm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"testing"
	"time"

	"itdos/internal/netsim"
	"itdos/internal/pbft"
)

// TestCheckpointDigestAfterWrap checks the incremental digest against the
// snapshot it stands for once the window has wrapped past capacity: the
// checkpoint digest equals SnapshotDigest(Snapshot()), a queue restored
// from that snapshot reports the same digest (and keeps agreeing as both
// execute on), and the checkpoint's encoder still yields the checkpointed
// snapshot after later appends collected part of its window.
func TestCheckpointDigestAfterWrap(t *testing.T) {
	q := NewQueue(8, nil)
	for i := 0; i < 21; i++ {
		q.Execute(fmt.Sprintf("client:%d", i%3), []byte(fmt.Sprintf("msg-%d", i)))
	}
	if q.Len() != 8 || q.WindowStart() != 14 {
		t.Fatalf("window = %d messages from %d, want 8 from 14", q.Len(), q.WindowStart())
	}
	digest, encode := q.Checkpoint()
	snap := q.Snapshot()
	if d, err := q.SnapshotDigest(snap); err != nil || d != digest {
		t.Fatalf("SnapshotDigest(Snapshot()) = %x, %v; checkpoint digest %x", d, err, digest)
	}
	restored := NewQueue(8, nil)
	if err := restored.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if d, _ := restored.Checkpoint(); d != digest {
		t.Fatalf("restored queue digest %x, want %x", d, digest)
	}
	for i := 21; i < 30; i++ {
		op := []byte(fmt.Sprintf("msg-%d", i))
		q.Execute("client:0", op)
		restored.Execute("client:0", op)
	}
	if !bytes.Equal(encode(), snap) {
		t.Fatal("checkpoint encoder changed after later appends")
	}
	d1, _ := q.Checkpoint()
	d2, _ := restored.Checkpoint()
	if d1 != d2 || d1 == digest {
		t.Fatalf("digests after further execution: %x vs %x (checkpoint was %x)", d1, d2, digest)
	}
}

// TestQueueExecuteCostIndependentOfCapacity is the regression gate for the
// window cliff: once a queue is full, an append must cost the same
// amortised allocations and bytes whether it retains 64 or 4096 messages.
// (Copying the whole window on every append made the 4096-message queue
// allocate about 200 KiB per message.)
func TestQueueExecuteCostIndependentOfCapacity(t *testing.T) {
	const runs = 4 << 12 // several growth cycles of the largest window
	cost := func(capacity int) (allocs, bytesPerOp float64) {
		q := NewQueue(capacity, nil)
		op := make([]byte, 64)
		for i := 0; i < 2*capacity; i++ {
			q.Execute("client:a", op)
		}
		allocs = testing.AllocsPerRun(runs, func() { q.Execute("client:a", op) })
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			q.Execute("client:a", op)
		}
		runtime.ReadMemStats(&after)
		return allocs, float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	smallAllocs, smallBytes := cost(64)
	largeAllocs, largeBytes := cost(4096)
	t.Logf("per Execute: capacity 64 %.0f allocs %.0f B, capacity 4096 %.0f allocs %.0f B",
		smallAllocs, smallBytes, largeAllocs, largeBytes)
	if largeAllocs > smallAllocs {
		t.Errorf("allocs per Execute grow with capacity: %.0f at 4096 vs %.0f at 64", largeAllocs, smallAllocs)
	}
	if largeBytes > 1.25*smallBytes+64 {
		t.Errorf("bytes per Execute grow with capacity: %.0f at 4096 vs %.0f at 64", largeBytes, smallBytes)
	}
}

// TestHostileWindowLengthRejectedBeforeAllocation: a snapshot header
// claiming a full window with no bytes behind it is refused before the
// window is allocated (a 4095-entry window would be over 300 KiB).
func TestHostileWindowLengthRejectedBeforeAllocation(t *testing.T) {
	const runs = 100
	q := NewQueue(4096, nil)
	hostile := encodeWindow(1, nil)
	binary.BigEndian.PutUint32(hostile[8:], 4095) // window length, no messages behind it
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := q.SnapshotDigest(hostile); err == nil {
			t.Fatal("hostile window length accepted")
		}
	}
	runtime.ReadMemStats(&after)
	if perRun := (after.TotalAlloc - before.TotalAlloc) / runs; perRun > 1024 {
		t.Fatalf("rejecting a hostile window length allocated %d bytes", perRun)
	}
}

// newNullAuthDomain builds a 4-element domain with null authentication, so
// a test can play a Byzantine replica by re-encoding its messages.
func newNullAuthDomain(t *testing.T, seed int64) (*netsim.Network, *Domain) {
	t.Helper()
	net := netsim.NewNetwork(seed, netsim.UniformLatency(time.Millisecond, 3*time.Millisecond))
	dom, err := NewDomain(net, DomainConfig{
		Name: "dom", N: 4, F: 1,
		QueueCapacity:      64,
		CheckpointInterval: 4,
		ViewTimeout:        200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, el := range dom.Elements {
		el.OnDeliver = func(uint64, string, []byte) {}
	}
	return net, dom
}

// TestTamperedStateDataRejected replays a genuine STATE-DATA to a lagging
// replica with one field of its snapshot altered — a message byte, a
// sender, nextSeq, or a client-table entry — and re-signed, as a
// Byzantine peer could. Each must fail the checkpoint certificate and
// leave the replica's queue, execution point and stable checkpoint as
// they were; the untouched original is then accepted.
func TestTamperedStateDataRejected(t *testing.T) {
	net, dom := newNullAuthDomain(t, 11)
	lagged := dom.Addrs()[3]
	net.Partition([]netsim.NodeID{lagged},
		append(append([]netsim.NodeID{}, dom.Addrs()[:3]...), "sender/a", "sender/b"))
	acks := 0
	var senders []*Sender
	for _, id := range []string{"a", "b"} {
		s, err := NewSender(dom, "client:"+id, "sender/"+id, nil, 100*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		s.OnAck = func(uint64) { acks++ }
		senders = append(senders, s)
	}
	send := func(i int) {
		want := acks + 1
		if _, err := senders[i%2].Send([]byte(fmt.Sprintf("m%d", i))); err != nil {
			t.Fatal(err)
		}
		if err := net.RunUntil(func() bool { return acks >= want }, 2_000_000); err != nil {
			t.Fatalf("send %d not acknowledged: %v", i, err)
		}
	}
	for i := 0; i < 9; i++ { // checkpoints 4 and 8 stabilise without element 3
		send(i)
	}
	net.Heal()
	// Hold back every STATE-DATA bound for the lagging replica.
	var genuine *pbft.StateData
	net.AddFilter(func(_, to netsim.NodeID, payload []byte) ([]byte, bool) {
		if to != lagged {
			return nil, false
		}
		m, err := pbft.Decode(payload)
		if err != nil || m.Type() != pbft.MTStateData {
			return nil, false
		}
		if genuine == nil {
			genuine = m.(*pbft.StateData)
		}
		return nil, true
	})
	for i := 9; genuine == nil && i < 20; i++ {
		send(i)
	}
	if genuine == nil {
		t.Fatal("lagging replica never received STATE-DATA")
	}
	net.ClearFilters()

	rep, el := dom.Elements[3].Replica, dom.Elements[3]
	lastExec, stable, queue := rep.LastExecuted(), rep.StableCheckpoint(), el.Queue().Snapshot()
	if lastExec >= genuine.Seq {
		t.Fatalf("replica already at %d, STATE-DATA carries %d", lastExec, genuine.Seq)
	}
	tamper := map[string]func(nextSeq *uint64, window []queuedMsg, clients []pbft.ClientState){
		"message byte": func(_ *uint64, w []queuedMsg, _ []pbft.ClientState) { w[len(w)/2].data[0] ^= 1 },
		"sender":       func(_ *uint64, w []queuedMsg, _ []pbft.ClientState) { w[0].sender = "client:z" },
		"nextSeq":      func(n *uint64, _ []queuedMsg, _ []pbft.ClientState) { *n++ },
		"client table": func(_ *uint64, _ []queuedMsg, c []pbft.ClientState) { c[len(c)-1].Seq++ },
	}
	for _, name := range []string{"message byte", "sender", "nextSeq", "client table"} {
		app, clients, err := pbft.DecodeState(genuine.Snapshot)
		if err != nil {
			t.Fatal(err)
		}
		nextSeq, window, err := decodeWindow(app, 64)
		if err != nil {
			t.Fatal(err)
		}
		if len(window) == 0 || len(clients) < 2 {
			t.Fatalf("snapshot holds %d messages and %d clients", len(window), len(clients))
		}
		tamper[name](&nextSeq, window, clients)
		forged := *genuine
		forged.Snapshot = pbft.EncodeState(encodeWindow(nextSeq, window), clients)
		if bytes.Equal(forged.Snapshot, genuine.Snapshot) {
			t.Fatalf("%s: tampering left the snapshot unchanged", name)
		}
		rep.HandleMessage(pbft.Encode(&forged))
		if rep.LastExecuted() != lastExec || rep.StableCheckpoint() != stable ||
			!bytes.Equal(el.Queue().Snapshot(), queue) {
			t.Fatalf("%s: forged STATE-DATA changed the replica (lastExec %d→%d, stable %d→%d)",
				name, lastExec, rep.LastExecuted(), stable, rep.StableCheckpoint())
		}
	}
	rep.HandleMessage(pbft.Encode(genuine))
	if rep.LastExecuted() < genuine.Seq || rep.StableCheckpoint() != genuine.Seq {
		t.Fatalf("genuine STATE-DATA not applied: lastExec %d, stable %d, want %d",
			rep.LastExecuted(), rep.StableCheckpoint(), genuine.Seq)
	}
}

// TestLargeMessageStateTransferDigestsAgree: a replica partitioned past a
// stable checkpoint whose window holds 32 KiB messages catches up through
// state transfer, and afterwards stabilises later checkpoints on its own
// digest — which it does only when that digest matches the group's.
func TestLargeMessageStateTransferDigestsAgree(t *testing.T) {
	td := newTestDomain(t, 4, 1, 64, 12)
	lagged := td.dom.Addrs()[3]
	td.net.Partition([]netsim.NodeID{lagged},
		append(append([]netsim.NodeID{}, td.dom.Addrs()[:3]...), "sender/client:a"))
	s, acks := td.sender(t, "client:a")
	payload := func(i int) string {
		return string(bytes.Repeat([]byte{byte('a' + i%26)}, 32<<10)) + fmt.Sprint(i)
	}
	for i := 0; i < 9; i++ {
		td.sendAndWait(t, s, acks, payload(i))
	}
	rep := td.dom.Elements[3].Replica
	if rep.LastExecuted() != 0 {
		t.Fatalf("partitioned replica executed up to %d", rep.LastExecuted())
	}
	td.net.Heal()
	i := 9
	for ; rep.LastExecuted() == 0 && i < 30; i++ {
		td.sendAndWait(t, s, acks, payload(i))
	}
	td.net.Run(2_000_000)
	transferred := rep.StableCheckpoint()
	if transferred < 8 {
		t.Fatalf("lagging replica stable at %d after catching up, want a transferred checkpoint >= 8", transferred)
	}
	// Two more checkpoint intervals: the replica must stabilise them on
	// its own digest.
	for end := i + 8; i < end; i++ {
		td.sendAndWait(t, s, acks, payload(i))
	}
	td.net.Run(2_000_000)
	if td.desync[3] {
		t.Fatal("lagging element desynchronised")
	}
	t.Logf("state transfer to checkpoint %d, stable at %d afterwards", transferred, rep.StableCheckpoint())
	if got, want := rep.StableCheckpoint(), td.dom.Elements[0].Replica.StableCheckpoint(); got != want || got <= transferred {
		t.Fatalf("lagging replica stable at %d, group at %d (transferred %d)", got, want, transferred)
	}
	want, _ := td.dom.Elements[0].Queue().Checkpoint()
	for i, el := range td.dom.Elements {
		if d, _ := el.Queue().Checkpoint(); d != want {
			t.Fatalf("element %d queue digest %x, element 0 %x", i, d, want)
		}
	}
	if len(td.deliv[3]) != len(td.deliv[0]) {
		t.Fatalf("lagging element delivered %d messages, element 0 %d", len(td.deliv[3]), len(td.deliv[0]))
	}
}

func BenchmarkQueueExecuteFull(b *testing.B) {
	for _, window := range []int{1 << 10, 1 << 12} {
		for _, size := range []int{256, 32 << 10} {
			b.Run(fmt.Sprintf("window=%d/payload=%d", window, size), func(b *testing.B) {
				q := NewQueue(window, nil)
				op := make([]byte, size)
				for i := 0; i < window; i++ {
					q.Execute("client:a", op)
				}
				b.SetBytes(int64(size))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					q.Execute("client:a", op)
				}
			})
		}
	}
}

// digestSink keeps BenchmarkCheckpoint's result live.
var digestSink pbft.Digest

func BenchmarkCheckpoint(b *testing.B) {
	for _, window := range []int{1 << 10, 1 << 12} {
		for _, size := range []int{256, 32 << 10} {
			b.Run(fmt.Sprintf("window=%d/payload=%d", window, size), func(b *testing.B) {
				q := NewQueue(window, nil)
				op := make([]byte, size)
				for i := 0; i < window; i++ {
					q.Execute("client:a", op)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					digestSink, _ = q.Checkpoint()
				}
			})
		}
	}
}
