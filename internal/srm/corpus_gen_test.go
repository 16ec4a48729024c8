//go:build corpusgen

package srm

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"itdos/internal/pbft"
)

// TestGenStateSnapshotCorpus writes the committed seed corpus for
// FuzzStateSnapshotDigest: genuine replica states (a wrapped full window
// with a client table, an empty genesis state, a window of one large
// message), then the shapes a hostile peer would try — truncations, a
// window length past capacity, a window length past the bytes behind it,
// an oversized and an unsorted client table, and trailing bytes.
// Regenerate with:
//
//	go test -tags corpusgen -run TestGenStateSnapshotCorpus ./internal/srm
func TestGenStateSnapshotCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzStateSnapshotDigest")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	q := NewQueue(fuzzCapacity, nil)
	for i := 0; i < fuzzCapacity+5; i++ {
		q.Execute(fmt.Sprintf("client:%d", i%3), []byte(fmt.Sprintf("op-%d", i)))
	}
	clients := []pbft.ClientState{
		{ID: "client:0", Seq: 7, HasReply: true, Result: Ack},
		{ID: "client:1", Seq: 7, HasReply: true, Result: Ack},
		{ID: "client:2", Seq: 7, HasReply: true, Result: Ack},
	}
	wrapped := pbft.EncodeState(q.Snapshot(), clients)
	genesis := pbft.EncodeState(NewQueue(fuzzCapacity, nil).Snapshot(), nil)
	big := NewQueue(fuzzCapacity, nil)
	big.Execute("client:0", make([]byte, 4<<10))
	large := pbft.EncodeState(big.Snapshot(), clients[:1])

	overCapacity := NewQueue(fuzzCapacity, nil).Snapshot()
	binary.BigEndian.PutUint32(overCapacity[8:], fuzzCapacity+1)
	pastEnd := NewQueue(fuzzCapacity, nil).Snapshot()
	binary.BigEndian.PutUint32(pastEnd[8:], fuzzCapacity)
	hugeTable := pbft.EncodeState(NewQueue(fuzzCapacity, nil).Snapshot(), nil)
	binary.BigEndian.PutUint32(hugeTable[len(hugeTable)-4:], 0xFFFFFFFF)
	unsorted := pbft.EncodeState(q.Snapshot(), []pbft.ClientState{clients[1], clients[0]})

	seeds := [][]byte{
		wrapped,
		genesis,
		large,
		wrapped[:len(wrapped)/2],            // cut inside the window
		wrapped[:len(wrapped)-3],            // cut inside the client table
		pbft.EncodeState(overCapacity, nil), // window longer than capacity
		pbft.EncodeState(pastEnd, nil),      // window longer than its bytes
		hugeTable,                           // client table count 2^32-1
		unsorted,                            // client rows out of order
		append(append([]byte(nil), wrapped...), 0),     // trailing byte
		pbft.EncodeState(append(q.Snapshot(), 0), nil), // trailing byte in the window
		{},
	}
	for i, seed := range seeds {
		name := filepath.Join(dir, fmt.Sprintf("seed-%d", i))
		content := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed)
		if err := os.WriteFile(name, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
