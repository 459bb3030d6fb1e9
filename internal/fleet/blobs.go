package fleet

import (
	"context"
	"net/http"
	"strings"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/server"
)

// replicatedBlobs is a peer's checkpoint store: a server.BlobStore that
// replicates writes to the key's ring owners, so a session checkpoint or
// request record put on one peer lands on all R owners of its key, and a
// replica can restore the session (or answer a GET of the request) after
// the owner dies.
// NewPeer gives the peer's server a replicatedBlobs as Options.Checkpoints
// and the underlying local store as Options.InternalBlobs — pushed blobs are
// stored locally by the receiving peer, never re-pushed (no replication
// loops).
//
// Consistency model: pushes are synchronous but best-effort — a put returns
// once the local write succeeded, whatever the peers said (a dead replica
// costs redundancy, not availability; its breaker-gated pushes stop until it
// revives). Reads are freshest-wins: a session blob is fetched from every
// reachable owner and the one with the highest observation count is
// returned, which is what lets a revived stale owner heal itself (the
// server's refresh-on-gap path) and a replica take over at the last acked
// observation. Request records are immutable (content-addressed), so any
// copy is the right copy.
type replicatedBlobs struct {
	local server.BlobStore
	// self is this peer's ring name: pushes skip it (the local write already
	// happened) and remote reads skip it (the local read already missed).
	self     string
	ring     *Ring
	topo     *topology
	replicas int
	logf     func(format string, args ...any)

	pushes, pushErrs, remoteGets atomic.Int64
}

// keyOfBlob maps a blob name to its ring key: session blobs route by session
// id and request records by fingerprint — the same keys the router routes
// the corresponding requests by, so a blob's owners are exactly the peers
// that serve its traffic.
func keyOfBlob(name string) string {
	if id, ok := strings.CutPrefix(name, "session-"); ok {
		return id
	}
	if fp, ok := strings.CutPrefix(name, "request-"); ok {
		return fp
	}
	return name
}

// PutBlob writes locally, then pushes to the key's other ring owners.
// Returns the local write's error only: replication is redundancy, not a
// durability gate.
func (b *replicatedBlobs) PutBlob(name string, data []byte) error {
	if err := b.local.PutBlob(name, data); err != nil {
		return err
	}
	for _, peer := range b.ring.Owners(keyOfBlob(name), b.replicas) {
		if peer == b.self {
			continue
		}
		if !b.topo.breaker(peer).Allow() {
			continue
		}
		b.pushes.Add(1)
		res, err := b.topo.do(context.Background(), peer, http.MethodPut, "/v1/internal/blobs/"+name, data, "")
		if err == nil && res.status != http.StatusOK {
			err = &pushError{peer: peer, status: res.status}
		}
		if err != nil {
			b.pushErrs.Add(1)
			if b.logf != nil {
				b.logf("fleet: pushing blob %s to %s failed: %v", name, peer, err)
			}
		}
	}
	return nil
}

type pushError struct {
	peer   string
	status int
}

func (e *pushError) Error() string {
	return "fleet: peer " + e.peer + " refused blob push with status " + http.StatusText(e.status)
}

// GetBlob reads locally first. On a miss — or, for session blobs, always —
// it consults the key's other ring owners: session checkpoints take the
// freshest copy (highest observation count), immutable request records take
// the first copy found. A remote copy that wins is written back locally, so
// the next read is local.
func (b *replicatedBlobs) GetBlob(name string) ([]byte, bool, error) {
	data, ok, err := b.local.GetBlob(name)
	if err != nil {
		return nil, false, err
	}
	session := strings.HasPrefix(name, "session-")
	if ok && !session {
		return data, true, nil
	}
	best, bestObserved, wonRemotely := data, int64(-1), false
	if ok {
		if n, pok := server.SessionCheckpointObserved(data); pok {
			bestObserved = n
		}
	}
	for _, peer := range b.ring.Owners(keyOfBlob(name), b.replicas) {
		if peer == b.self {
			continue
		}
		if !b.topo.breaker(peer).Allow() {
			continue
		}
		b.remoteGets.Add(1)
		res, rerr := b.topo.do(context.Background(), peer, http.MethodGet, "/v1/internal/blobs/"+name, nil, "")
		if rerr != nil || res.status != http.StatusOK {
			continue
		}
		if !session {
			best, wonRemotely = res.body, true
			break // immutable: first copy wins
		}
		if n, pok := server.SessionCheckpointObserved(res.body); pok && n > bestObserved {
			best, bestObserved, wonRemotely = res.body, n, true
		}
	}
	if best == nil {
		return nil, false, nil
	}
	if wonRemotely {
		// Settle the winning copy locally so the next read is local. A racing
		// fresher push could be overwritten here, but session reads are
		// always freshest-wins across replicas, so a stale settle cannot
		// poison anything — it just costs the next read a remote round.
		if err := b.local.PutBlob(name, best); err != nil && b.logf != nil {
			b.logf("fleet: settling blob %s locally failed: %v", name, err)
		}
	}
	return best, true, nil
}

// ListBlobs lists the local store only: boot-time RestoreSessions restores
// what this peer owns; everything else arrives lazily via routed traffic.
func (b *replicatedBlobs) ListBlobs() ([]string, error) {
	return b.local.ListBlobs()
}

// registerMetrics bridges the replication counters into the peer's
// registry, so a peer losing redundancy shows on its own /metrics, as
// scrape-time reads of the atomics.
func (b *replicatedBlobs) registerMetrics(reg *obs.Registry) {
	reg.CounterFunc("schedd_fleet_blob_pushes_total", "Blob pushes to the key's other ring owners.", b.pushes.Load)
	reg.CounterFunc("schedd_fleet_blob_push_errors_total", "Blob pushes that failed (the replica lacks that write).", b.pushErrs.Load)
	reg.CounterFunc("schedd_fleet_blob_remote_gets_total", "Blob reads sent to the key's other ring owners.", b.remoteGets.Load)
}
