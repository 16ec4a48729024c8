package pbft

import (
	"crypto/sha256"
	"fmt"
	"sort"

	"itdos/internal/cdr"
)

// Replica state for checkpoints and state transfer. A checkpoint commits to
//
//	H(appDigest ‖ H(client-table encoding))
//
// where appDigest is whatever App.Checkpoint reports (for the SRM queue, a
// hash over per-message digests, so a checkpoint costs 32 bytes of hashing
// per retained message rather than a pass over every retained byte). The
// snapshot bytes a StateData carries are encoded only when a peer fetches
// them: octets(app snapshot) followed by the client table.

// ClientState is one row of the replicated client table as carried in a
// state snapshot: a client's last executed request and its cached result
// (Castro–Liskov keep the table in state for at-most-once semantics after
// state transfer).
type ClientState struct {
	ID       string
	Seq      uint64
	HasReply bool
	Result   []byte
}

// WholeSnapshot is the checkpoint of an App that digests its entire
// snapshot encoding: the digest is SHA-256 of the bytes, and the encoder
// returns them. Apps without a cheaper incremental digest implement both
// Checkpoint and SnapshotDigest through it.
func WholeSnapshot(snapshot []byte) (Digest, func() []byte) {
	return sha256.Sum256(snapshot), func() []byte { return snapshot }
}

// StateDigest is the digest a checkpoint commits to, given the
// application's digest and the client table (rows sorted by ID).
func StateDigest(appDigest Digest, clients []ClientState) Digest {
	e := cdr.NewEncoder(cdr.BigEndian)
	writeClients(e, clients)
	table := sha256.Sum256(e.Bytes())
	var buf [2 * len(Digest{})]byte
	copy(buf[:], appDigest[:])
	copy(buf[len(appDigest):], table[:])
	return sha256.Sum256(buf[:])
}

// EncodeState builds the snapshot a StateData carries: the application
// snapshot followed by the client table (rows sorted by ID).
func EncodeState(app []byte, clients []ClientState) []byte {
	e := cdr.NewEncoder(cdr.BigEndian)
	e.WriteOctets(app)
	writeClients(e, clients)
	return e.Bytes()
}

func writeClients(e *cdr.Encoder, clients []ClientState) {
	e.WriteULong(uint32(len(clients)))
	for _, c := range clients {
		e.WriteString(c.ID)
		e.WriteULongLong(c.Seq)
		e.WriteBoolean(c.HasReply)
		e.WriteOctets(c.Result)
	}
}

// minClientBytes is the smallest encoding of one client-table row: ID
// length and NUL, sequence, reply flag, result length.
const minClientBytes = 4 + 1 + 8 + 1 + 4

// DecodeState parses a StateData snapshot into the application snapshot
// and the client table. Peers reach it directly, so it bounds the table
// before allocating and accepts only the canonical form: rows strictly
// sorted by ID and no trailing bytes. The returned slices alias snapshot.
func DecodeState(snapshot []byte) (app []byte, clients []ClientState, err error) {
	d := cdr.NewDecoder(snapshot, cdr.BigEndian)
	if app, err = d.ReadOctets(); err != nil {
		return nil, nil, fmt.Errorf("pbft: state snapshot: %w", err)
	}
	n, err := d.ReadULong()
	if err != nil {
		return nil, nil, fmt.Errorf("pbft: state client table: %w", err)
	}
	if n > maxProofEntries || int(n) > d.Remaining()/minClientBytes {
		return nil, nil, fmt.Errorf("pbft: implausible client table size %d", n)
	}
	clients = make([]ClientState, n)
	for i := range clients {
		c := &clients[i]
		if c.ID, err = d.ReadString(); err != nil {
			return nil, nil, err
		}
		if i > 0 && c.ID <= clients[i-1].ID {
			return nil, nil, fmt.Errorf("pbft: client table not sorted at %q", c.ID)
		}
		if c.Seq, err = d.ReadULongLong(); err != nil {
			return nil, nil, err
		}
		if c.HasReply, err = d.ReadBoolean(); err != nil {
			return nil, nil, err
		}
		if c.Result, err = d.ReadOctets(); err != nil {
			return nil, nil, err
		}
	}
	if d.Remaining() != 0 {
		return nil, nil, fmt.Errorf("pbft: %d trailing bytes after state snapshot", d.Remaining())
	}
	return app, clients, nil
}

// checkpointState is one checkpoint's replica state: the digest the group
// agrees on, and the snapshot bytes, encoded from retained handles only
// when a peer asks for them.
type checkpointState struct {
	digest    Digest
	encodeApp func() []byte
	clients   []ClientState
	bytes     []byte
}

// snapshot returns the StateData encoding, building and caching it on
// first use.
func (s *checkpointState) snapshot() []byte {
	if s.bytes == nil {
		s.bytes = EncodeState(s.encodeApp(), s.clients)
		s.encodeApp, s.clients = nil, nil
	}
	return s.bytes
}

// captureState checkpoints the current replica state.
func (r *Replica) captureState() *checkpointState {
	appDigest, encodeApp := r.app.Checkpoint()
	clients := make([]ClientState, 0, len(r.clientTable))
	for id, rec := range r.clientTable {
		clients = append(clients, ClientState{ID: id, Seq: rec.seq, HasReply: rec.hasReply, Result: rec.result})
	}
	sort.Slice(clients, func(i, j int) bool { return clients[i].ID < clients[j].ID })
	return &checkpointState{
		digest:    StateDigest(appDigest, clients),
		encodeApp: encodeApp,
		clients:   clients,
	}
}
