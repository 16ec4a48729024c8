package srm

import (
	"testing"

	"itdos/internal/pbft"
)

// fuzzCapacity is the queue capacity the state-digest fuzz target restores
// into: small enough that the capacity bound is easy to hit.
const fuzzCapacity = 16

// FuzzStateSnapshotDigest drives the STATE-DATA parse-and-digest path a
// lagging replica runs on a peer's snapshot before checking it against
// the checkpoint certificate: pbft.DecodeState, then the queue's
// SnapshotDigest. Peers control these bytes, so the path must never
// panic; the length checks in both decoders run before they allocate. Any
// snapshot the digest path accepts must restore to a queue reporting the
// same digest, and re-encoding the restored state must digest the same
// (the digest commits to content, not to encoding slack such as padding).
func FuzzStateSnapshotDigest(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		app, clients, err := pbft.DecodeState(data)
		if err != nil {
			return
		}
		q := NewQueue(fuzzCapacity, nil)
		appDigest, err := q.SnapshotDigest(app)
		if err != nil {
			return
		}
		if err := q.Restore(app); err != nil {
			t.Fatalf("snapshot digested but does not restore: %v", err)
		}
		if d, _ := q.Checkpoint(); d != appDigest {
			t.Fatalf("restored queue digests to %x, snapshot to %x", d, appDigest)
		}
		app2, clients2, err := pbft.DecodeState(pbft.EncodeState(q.Snapshot(), clients))
		if err != nil {
			t.Fatalf("re-encoded state does not parse: %v", err)
		}
		appDigest2, err := NewQueue(fuzzCapacity, nil).SnapshotDigest(app2)
		if err != nil {
			t.Fatalf("re-encoded queue snapshot rejected: %v", err)
		}
		if was, now := pbft.StateDigest(appDigest, clients), pbft.StateDigest(appDigest2, clients2); now != was {
			t.Fatalf("re-encoded state digests to %x, was %x", now, was)
		}
	})
}
