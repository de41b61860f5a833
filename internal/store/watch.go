package store

import (
	"context"

	"orchestra/internal/core"
)

// Watching is the optional subscription capability: instead of polling
// BeginReconciliation for new stable epochs, a consumer subscribes once and
// is woken whenever the stable frontier advances. Like Replayer/Snapshotter
// it is an optional interface — central implements it natively (a
// frontier-advance notification, no polling in-process), the remote client
// proxies it as a resumable long-poll, and backends that cannot watch (the
// DHT store) simply don't implement it and consumers degrade to polling.

// WatchEvent reports that the stable frontier advanced: every epoch in
// (From, To] became stable, carrying those epochs' published transactions in
// epoch order. Events on one subscription are contiguous — each event's From
// equals the previous event's To — so a consumer's cursor is always the To
// of the last event it processed, and resuming a broken subscription from
// that cursor can neither skip nor repeat an epoch.
type WatchEvent struct {
	From core.Epoch // exclusive
	To   core.Epoch // inclusive
	Txns []PublishedTxn
}

// Watcher is implemented by stores that can push stable-frontier advances.
type Watcher interface {
	// WatchFrom subscribes to stable epochs after `from` (exclusive). The
	// returned channel delivers contiguous WatchEvents until ctx is done or
	// the subscription breaks (store shutdown, transport failure), after
	// which it is closed. A closed channel with a live ctx means the
	// subscription broke; the consumer resumes by calling WatchFrom again
	// with its cursor. Watching from below the store's compaction horizon
	// fails: those epochs' windows are gone.
	WatchFrom(ctx context.Context, from core.Epoch) (<-chan WatchEvent, error)
}

// WatchProber reports whether the store (or the backend behind a proxy)
// supports watching. The remote client implements this with a capability
// RPC so a proxy's answer reflects the actual backend.
type WatchProber interface {
	CanWatch(ctx context.Context) bool
}

// CanWatch reports whether st supports WatchFrom, asking a WatchProber if
// the store is one (a proxy knows better than its static type) and falling
// back to a type assertion.
//
// It stays one probe per capability, not one bitset, because the
// repository benchmark asks each by name.
func CanWatch(ctx context.Context, st Store) bool {
	if p, ok := st.(WatchProber); ok {
		return p.CanWatch(ctx)
	}
	_, ok := st.(Watcher)
	return ok
}
