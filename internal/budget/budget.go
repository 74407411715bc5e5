// Package budget provides the cheap cancellation and wall-clock-budget token
// threaded through the whole numeric stack (ode → shooting → floquet → core →
// sweep). A *Token is polled at integrator-step granularity: a check is a
// non-blocking channel select plus (when a deadline is armed anywhere in the
// chain) one time.Now() call, so even the innermost RK4 loops can afford it.
//
// Tokens form a chain: a child created with WithCancel / WithTimeout /
// WithDeadline trips whenever any ancestor trips, so a sweep can hand every
// attempt a token that combines the attempt deadline, the per-point deadline
// and the batch-wide cancellation. A nil *Token is valid everywhere and never
// trips, so budget-free callers pay nothing.
//
// At the API boundary, FromContext adapts a context.Context (both its Done
// channel and its deadline) into a Token, keeping the numeric packages free
// of context plumbing.
package budget

import (
	"context"
	"errors"
	"sync"
	"time"
)

// ErrCanceled is returned by a token whose cancel function (or ancestor
// context) fired. Callers branch with errors.Is.
var ErrCanceled = errors.New("budget: canceled")

// ErrBudgetExceeded is returned by a token whose wall-clock deadline passed.
// Callers branch with errors.Is.
var ErrBudgetExceeded = errors.New("budget: wall-clock budget exceeded")

// Is reports whether err is (or wraps) either budget error — a cut-off rather
// than a numerical failure. Cut-offs are never retryable: repeating the work
// under the same budget cannot help.
func Is(err error) bool {
	return errors.Is(err, ErrCanceled) || errors.Is(err, ErrBudgetExceeded)
}

// Token is one link of a cancellation/deadline chain. The zero value is not
// useful; build tokens with WithCancel, WithTimeout, WithDeadline or
// FromContext. All methods are safe on a nil receiver (a nil token never
// trips) and safe for concurrent use.
type Token struct {
	parent   *Token
	done     <-chan struct{} // non-nil for cancelable tokens
	deadline time.Time       // zero when no deadline at this link
}

// WithCancel returns a cancelable child of parent (nil parent is allowed) and
// the function that trips it. The cancel function is idempotent and safe to
// call from any goroutine.
//
// The child's Done channel closes when either the cancel function fires or
// any cancelable ancestor trips, so a supervisor that inserted its own cancel
// link still observes cancellation from above. When the parent chain is
// cancelable this costs one forwarding goroutine; as with context.WithCancel,
// call cancel once the token is no longer needed to release it.
func WithCancel(parent *Token) (*Token, func()) {
	own := make(chan struct{})
	var once sync.Once
	cancel := func() { once.Do(func() { close(own) }) }
	done := (<-chan struct{})(own)
	if pd := parent.Done(); pd != nil {
		merged := make(chan struct{})
		go func() {
			select {
			case <-own:
			case <-pd:
			}
			close(merged)
		}()
		done = merged
	}
	return &Token{parent: parent, done: done}, cancel
}

// WithTimeout returns a child of parent (nil parent is allowed) that reports
// ErrBudgetExceeded once d has elapsed from now. A non-positive d yields a
// token that is already expired.
func WithTimeout(parent *Token, d time.Duration) *Token {
	return WithDeadline(parent, time.Now().Add(d))
}

// WithDeadline returns a child of parent that reports ErrBudgetExceeded once
// the wall clock passes t.
func WithDeadline(parent *Token, t time.Time) *Token {
	return &Token{parent: parent, deadline: t}
}

// FromContext adapts ctx into a Token: the token reports ErrCanceled once
// ctx.Done() fires and ErrBudgetExceeded once the ctx deadline (if any)
// passes. A nil or background context yields a nil token.
func FromContext(ctx context.Context) *Token {
	if ctx == nil {
		return nil
	}
	done := ctx.Done()
	dl, ok := ctx.Deadline()
	if done == nil && !ok {
		return nil
	}
	t := &Token{done: done}
	if ok {
		t.deadline = dl
	}
	return t
}

// Err reports whether the token (or any ancestor) has tripped: ErrCanceled
// for cancellation, ErrBudgetExceeded for an expired deadline, nil otherwise.
// This is the per-step check: one non-blocking select per cancelable link and
// at most one time.Now() per call until the token trips.
func (t *Token) Err() error {
	// Deadlines across the whole chain take precedence over cancellation:
	// when a supervisor enforces an expired deadline by cancelling a child
	// link, the informative answer is still ErrBudgetExceeded.
	if t.expired() {
		return ErrBudgetExceeded
	}
	for tk := t; tk != nil; tk = tk.parent {
		if tk.done != nil {
			select {
			case <-tk.done:
				// The supervisor's timer may have fired and cancelled after
				// the clock reading above: read it again before calling the
				// trip a cancellation.
				if t.expired() {
					return ErrBudgetExceeded
				}
				return ErrCanceled
			default:
			}
		}
	}
	return nil
}

// expired reports whether any deadline in the chain has passed, reading the
// clock at most once.
func (t *Token) expired() bool {
	var now time.Time
	for tk := t; tk != nil; tk = tk.parent {
		if !tk.deadline.IsZero() {
			if now.IsZero() {
				now = time.Now()
			}
			if !now.Before(tk.deadline) {
				return true
			}
		}
	}
	return false
}

// Deadline returns the earliest wall-clock deadline armed anywhere in the
// chain, and whether one exists.
func (t *Token) Deadline() (time.Time, bool) {
	var dl time.Time
	ok := false
	for tk := t; tk != nil; tk = tk.parent {
		if tk.deadline.IsZero() {
			continue
		}
		if !ok || tk.deadline.Before(dl) {
			dl, ok = tk.deadline, true
		}
	}
	return dl, ok
}

// Done returns a channel that closes once any cancelable link in the chain
// trips (nil when none is cancelable). Every WithCancel link already folds
// its ancestors' cancellation into its own channel, so the nearest cancelable
// link's channel observes the whole chain. It lets a supervisor select on
// cancellation alongside other events; deadlines are not reflected here —
// pair Done with Deadline and a timer.
func (t *Token) Done() <-chan struct{} {
	for tk := t; tk != nil; tk = tk.parent {
		if tk.done != nil {
			return tk.done
		}
	}
	return nil
}
