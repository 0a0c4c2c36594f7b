package server

import (
	"errors"

	"htlvideo"
	"htlvideo/internal/faultinject"
	"htlvideo/internal/resilience"
)

// The breaker, the retry loop and the fan-out that drives them are shared
// with the store and the shard coordinator and live in internal/resilience;
// the aliases below keep the server's configuration types where serving users
// expect them. What stays here is the serving-specific part: the
// transient-error classifier, which knows the store's error taxonomy.

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

// IsTransient classifies an error as retryable. Transient failures are the
// ones a fresh attempt can plausibly clear: picture-system build failures
// (evicted from the cache, so a retry rebuilds), injected faults, and
// contained evaluation panics. Context cancellation/deadline errors and
// everything else — parse errors never reach the retry loop, validation and
// engine-capability errors are deterministic — are not retried.
func IsTransient(err error) bool {
	if err == nil || resilience.IsContextError(err) {
		return false
	}
	var pe *htlvideo.PanicError
	return errors.Is(err, htlvideo.ErrPictureBuild) ||
		errors.Is(err, faultinject.ErrInjected) ||
		errors.As(err, &pe)
}
