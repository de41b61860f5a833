package store

import "context"

// IdempotencyKey identifies one logical mutating store call across
// transport retries. A client that may deliver the same call twice — a
// retry after a lost reply, a duplicated message — attaches the same key to
// every attempt; a deduping store (IdempotencyProber) executes the call
// once and replays the recorded result to every later attempt. Keys must be
// unique per logical call: reusing a key returns the first call's result,
// whatever the arguments.
type IdempotencyKey string

// idemCtxKey carries the key through a context.
type idemCtxKey struct{}

// WithIdempotencyKey returns a context carrying the idempotency key for the
// next mutating store call.
func WithIdempotencyKey(ctx context.Context, key IdempotencyKey) context.Context {
	return context.WithValue(ctx, idemCtxKey{}, key)
}

// IdempotencyKeyFrom extracts the idempotency key from the context, if any.
func IdempotencyKeyFrom(ctx context.Context) (IdempotencyKey, bool) {
	key, ok := ctx.Value(idemCtxKey{}).(IdempotencyKey)
	return key, ok && key != ""
}

// IdempotencyProber is implemented by stores that dedupe idempotency-keyed
// calls (the central store natively; the remote client by asking its server
// over the wire). Stores without it execute every delivery, so retrying
// non-idempotent operations against them is unsafe.
type IdempotencyProber interface {
	CanDedupe(ctx context.Context) bool
}

// CanDedupe reports whether the store dedupes idempotency-keyed calls.
//
// It stays one probe per capability, not one bitset, because the
// repository benchmark asks each by name.
func CanDedupe(ctx context.Context, s Store) bool {
	p, ok := s.(IdempotencyProber)
	return ok && p.CanDedupe(ctx)
}
