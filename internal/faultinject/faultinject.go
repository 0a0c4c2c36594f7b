// Package faultinject provides deterministic, seed-driven fault injection
// for resilience testing. Production code calls Fire at named sites; when no
// plan is armed the call is a single atomic load and a nil return, so the
// hooks are safe to leave in hot paths. Tests arm a Plan describing which
// sites should fail, panic, or stall, on which keys, and with what
// probability; probabilistic decisions are driven by a seeded hash of
// (seed, site, key, invocation ordinal), so a given plan makes the same
// decisions on every run.
//
// The package exists so the store-level resilience guarantees — cancellation
// latency bounds, panic containment, error aggregation, partial-result
// semantics — can be proven against real failure modes rather than mocks.
package faultinject

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Site names an instrumented code location.
type Site string

// Instrumented sites. The key passed to Fire at each site identifies the
// unit of work, so rules can target one video or statement.
const (
	// SitePictureNewSystem fires when a picture system is built over a
	// video's sequence; the key is the video id.
	SitePictureNewSystem Site = "picture.NewSystem"
	// SiteAtomicEval fires on each atomic (non-temporal) formula evaluation
	// over a sequence; the key is the video id.
	SiteAtomicEval Site = "picture.EvalAtomic"
	// SiteTopKScan fires inside the top-k selection (core.TopK), once per
	// video before its list is read; the key is the video id. Stall rules
	// there block the selection until its context is cancelled.
	SiteTopKScan Site = "core.TopKScan"
	// SiteWALAppend fires before each write-ahead-log frame write; the key
	// is the file offset the frame would start at. It is an IO site
	// (FireIO): rules there can fail the write, cut it short, or kill the
	// process partway through the frame.
	SiteWALAppend Site = "wal.Append"
	// SiteWALSync fires before each write-ahead-log fsync; the key is the
	// file size being made durable. An IO site (FireIO): rules there fail
	// the sync or kill the process before it happens.
	SiteWALSync Site = "wal.Sync"
)

// KeyAny matches every key at a site.
const KeyAny int64 = -1

// Kind selects what a triggered rule does.
type Kind uint8

const (
	// KindError makes the site return Rule.Err (ErrInjected by default).
	KindError Kind = iota
	// KindPanic makes the site panic with a *Panic value.
	KindPanic
	// KindStall blocks the site for Rule.Stall, or until the context passed
	// to Fire is cancelled, whichever comes first. A zero Stall blocks
	// until cancellation; at context-free sites it is a no-op.
	KindStall
	// KindShortWrite makes an IO site (FireIO) write only Rule.Bytes bytes
	// of the operation before failing with Rule.Err — the torn-frame shape
	// a crash mid-write leaves behind.
	KindShortWrite
	// KindKill makes an IO site terminate the process with os.Exit — no
	// deferred cleanup, no fsync — after writing part of the operation: the
	// real thing a kill -9 does, for subprocess crash harnesses. With a
	// positive Rule.Offset the rule triggers on the write that would cross
	// that absolute file offset and allows exactly the bytes up to it;
	// otherwise Rule.Bytes bytes of the operation are written first.
	KindKill
)

// DefaultKillExitCode is the status KindKill exits with when the rule names
// none; 137 is the shell's rendering of SIGKILL.
const DefaultKillExitCode = 137

// ErrInjected is the default error returned by KindError rules; detect it
// with errors.Is.
var ErrInjected = errors.New("faultinject: injected failure")

// Panic is the value thrown by KindPanic rules.
type Panic struct {
	Site Site
	Key  int64
}

func (p *Panic) String() string {
	return fmt.Sprintf("faultinject: injected panic at %s (key %d)", p.Site, p.Key)
}

// Rule arms one fault at one site.
type Rule struct {
	Site Site
	// Key restricts the rule to one key; KeyAny matches all.
	Key int64
	// Prob in (0, 1) triggers the rule on roughly that fraction of matching
	// calls, decided deterministically from the plan's seed. Values outside
	// the open interval (including the zero value) always trigger.
	Prob float64
	Kind Kind
	// Err overrides ErrInjected for KindError and KindShortWrite.
	Err error
	// Stall is KindStall's duration; zero blocks until cancellation.
	Stall time.Duration
	// Bytes is how much of the operation a KindShortWrite completes, or a
	// KindKill writes before exiting when Offset is zero.
	Bytes int
	// Offset aims a KindKill at an absolute file position: the rule
	// triggers on the IO operation that would cross it (key ≤ Offset <
	// key+n) and permits exactly Offset−key bytes first.
	Offset int64
	// ExitCode overrides DefaultKillExitCode for KindKill.
	ExitCode int
}

// Plan is an armed set of rules plus the seed driving probabilistic ones.
type Plan struct {
	seed  uint64
	rules []Rule

	mu    sync.Mutex
	calls map[Site]uint64
}

// NewPlan builds a plan; the same seed and rules reproduce the same
// decisions.
func NewPlan(seed int64, rules ...Rule) *Plan {
	return &Plan{
		seed:  uint64(seed),
		rules: append([]Rule(nil), rules...),
		calls: map[Site]uint64{},
	}
}

// Calls reports how many times Fire has been reached at a site while this
// plan was armed — a cheap probe for asserting deduplication and retry
// behavior in tests.
func (p *Plan) Calls(site Site) uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.calls[site]
}

var active atomic.Pointer[Plan]

// Arm installs the plan process-wide. Tests must Disarm before finishing;
// arming is not meant for concurrent use by independent tests.
func Arm(p *Plan) { active.Store(p) }

// Disarm removes any armed plan.
func Disarm() { active.Store(nil) }

// Enabled reports whether a plan is armed.
func Enabled() bool { return active.Load() != nil }

// Fire is the hook instrumented code calls at a site. It returns nil when no
// plan is armed or no rule triggers; otherwise it errors, panics, or stalls
// as the rule dictates. ctx may be nil at sites that have no context; stalls
// there last the full Rule.Stall.
func Fire(ctx context.Context, site Site, key int64) error {
	p := active.Load()
	if p == nil {
		return nil
	}
	return p.fire(ctx, site, key)
}

func (p *Plan) fire(ctx context.Context, site Site, key int64) error {
	p.mu.Lock()
	n := p.calls[site]
	p.calls[site] = n + 1
	p.mu.Unlock()
	for _, r := range p.rules {
		if r.Site != site || (r.Key != KeyAny && r.Key != key) {
			continue
		}
		if !p.roll(site, key, n, r.Prob) {
			continue
		}
		switch r.Kind {
		case KindPanic:
			panic(&Panic{Site: site, Key: key})
		case KindStall:
			var expire <-chan time.Time
			if r.Stall > 0 {
				t := time.NewTimer(r.Stall)
				defer t.Stop()
				expire = t.C
			}
			var done <-chan struct{}
			if ctx != nil {
				done = ctx.Done()
			}
			if expire == nil && done == nil {
				return nil // nothing to wait on: a no-op, not a deadlock
			}
			select {
			case <-expire:
				return nil
			case <-done:
				return ctx.Err()
			}
		default:
			err := r.Err
			if err == nil {
				err = ErrInjected
			}
			return fmt.Errorf("faultinject: %s (key %d): %w", site, key, err)
		}
	}
	return nil
}

// IOFault is what an IO site must do instead of (or around) its normal
// operation: perform only the first N bytes of it, then either die via Exit
// or fail with Err.
type IOFault struct {
	// Err is the failure to return once N bytes are done (nil only when
	// Kill is set: a killed process returns nothing).
	Err error
	// N is how many leading bytes of the operation to perform first — the
	// torn prefix a crash leaves behind. Zero fails the operation whole.
	N int
	// Kill means the process must terminate with no cleanup after the N
	// bytes: the caller performs them and calls Exit.
	Kill     bool
	ExitCode int
}

// Exit terminates the process immediately — no deferred functions, no
// flushes, no fsync — the honest rendering of a kill -9 for crash harnesses.
func (f *IOFault) Exit() {
	os.Exit(f.ExitCode)
}

// FireIO is Fire for IO sites: key is the operation's starting file offset
// (site-defined) and n its size in bytes. It returns nil to proceed
// normally; otherwise the caller must perform only the first N bytes of the
// operation and then call Exit (Kill set) or fail with Err. KindPanic rules
// still panic; KindStall rules are ignored (IO sites carry no context).
func FireIO(site Site, key int64, n int) *IOFault {
	p := active.Load()
	if p == nil {
		return nil
	}
	return p.fireIO(site, key, n)
}

func (p *Plan) fireIO(site Site, key int64, n int) *IOFault {
	p.mu.Lock()
	ord := p.calls[site]
	p.calls[site] = ord + 1
	p.mu.Unlock()
	for _, r := range p.rules {
		if r.Site != site || (r.Key != KeyAny && r.Key != key) {
			continue
		}
		// Offset-aimed kills trigger on the operation crossing the offset,
		// independent of the key match above (KeyAny is the usual key).
		if r.Kind == KindKill && r.Offset > 0 && !(key <= r.Offset && r.Offset < key+int64(n)) {
			continue
		}
		if !p.roll(site, key, ord, r.Prob) {
			continue
		}
		err := r.Err
		if err == nil {
			err = ErrInjected
		}
		err = fmt.Errorf("faultinject: %s (key %d): %w", site, key, err)
		switch r.Kind {
		case KindPanic:
			panic(&Panic{Site: site, Key: key})
		case KindStall:
			continue
		case KindShortWrite:
			return &IOFault{Err: err, N: clampN(r.Bytes, n)}
		case KindKill:
			f := &IOFault{Kill: true, ExitCode: r.ExitCode}
			if f.ExitCode == 0 {
				f.ExitCode = DefaultKillExitCode
			}
			if r.Offset > 0 {
				f.N = clampN(int(r.Offset-key), n)
			} else {
				f.N = clampN(r.Bytes, n)
			}
			return f
		default:
			return &IOFault{Err: err}
		}
	}
	return nil
}

// clampN bounds an injected byte count to [0, n].
func clampN(b, n int) int {
	if b < 0 {
		return 0
	}
	if b > n {
		return n
	}
	return b
}

// roll decides a probabilistic rule deterministically from the seed, the
// site, the key, and the invocation ordinal.
func (p *Plan) roll(site Site, key int64, n uint64, prob float64) bool {
	if prob <= 0 || prob >= 1 {
		return true
	}
	h := splitmix64(p.seed ^ fnv64(string(site)) ^ uint64(key)*0x9e3779b97f4a7c15 ^ n)
	return float64(h>>11)/float64(1<<53) < prob
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
