package store

import (
	"context"

	"orchestra/internal/core"
)

// TrustResolver is an optional store capability: a store that resolves
// trust delegations (the central store's trust graph, the remote client by
// RPC) reports each peer's *effective* trust — the registered policy with
// its delegation closure merged in and compiled. Peers use it to keep
// their local engine pricing candidates exactly as the store does.
type TrustResolver interface {
	// EffectiveTrust returns the peer's resolved trust. Unknown peers
	// error; a registered peer always has an answer (possibly its own
	// policy unchanged, when it delegates to nobody).
	EffectiveTrust(ctx context.Context, peer core.PeerID) (core.Trust, error)
}

// CanResolveTrust reports whether the store resolves delegations.
//
// It stays one probe per capability, not one bitset, because the
// repository benchmark asks each by name.
func CanResolveTrust(st Store) bool {
	_, ok := st.(TrustResolver)
	return ok
}
