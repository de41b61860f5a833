package store

import "context"

// Multi-group (tenant) capability probe. Grouping is an open-time concern
// — a multi-tenant backend opens one namespaced store per group — so the
// probe does not change the Store interface; it only reports whether the
// backend family behind this store can host multiple groups (the central
// store's shared-database tenancy, proxied over the remote transport). The
// DHT store cannot, and the multi-group conformance suite skips it.
type MultiGroupProber interface {
	CanMultiGroup(ctx context.Context) bool
}

// CanMultiGroup reports whether the store's backend supports multi-group
// tenancy, asking a MultiGroupProber if the store is one (a proxy knows
// better than its static type) and defaulting to no.
//
// It stays one probe per capability, not one bitset, because the
// repository benchmark asks each by name.
func CanMultiGroup(ctx context.Context, st Store) bool {
	if p, ok := st.(MultiGroupProber); ok {
		return p.CanMultiGroup(ctx)
	}
	return false
}
