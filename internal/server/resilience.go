package server

import "htlvideo/internal/resilience"

// The breaker, the retry loop and the fan-out that drives them are shared
// with the store and the shard coordinator and live in internal/resilience;
// the aliases below keep the server's configuration types where serving users
// expect them. The transient-error classifier the fan-out retries by is the
// store's own, htlvideo.IsTransient, beside the error markers it reads.

type (
	// BreakerConfig tunes the per-video circuit breakers.
	BreakerConfig = resilience.BreakerConfig
	// RetryConfig tunes the transient-error retry loop.
	RetryConfig = resilience.RetryConfig
)

// DefaultBreakerConfig returns the serving defaults.
func DefaultBreakerConfig() BreakerConfig { return resilience.DefaultBreakerConfig() }

// DefaultRetryConfig returns the serving defaults.
func DefaultRetryConfig() RetryConfig { return resilience.DefaultRetryConfig() }
