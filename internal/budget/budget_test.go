package budget

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestNilTokenNeverTrips(t *testing.T) {
	var tok *Token
	if err := tok.Err(); err != nil {
		t.Fatalf("nil token tripped: %v", err)
	}
	if tok.Done() != nil {
		t.Fatal("nil token has a done channel")
	}
	if _, ok := tok.Deadline(); ok {
		t.Fatal("nil token has a deadline")
	}
}

func TestWithCancel(t *testing.T) {
	tok, cancel := WithCancel(nil)
	if err := tok.Err(); err != nil {
		t.Fatalf("fresh token tripped: %v", err)
	}
	cancel()
	if err := tok.Err(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("got %v, want ErrCanceled", err)
	}
	select {
	case <-tok.Done():
	default:
		t.Fatal("Done channel not closed after cancel")
	}
	cancel() // idempotent
}

func TestWithTimeout(t *testing.T) {
	tok := WithTimeout(nil, 20*time.Millisecond)
	if err := tok.Err(); err != nil {
		t.Fatalf("fresh deadline token tripped: %v", err)
	}
	if _, ok := tok.Deadline(); !ok {
		t.Fatal("no deadline reported")
	}
	time.Sleep(30 * time.Millisecond)
	if err := tok.Err(); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("got %v, want ErrBudgetExceeded", err)
	}
}

func TestParentCancellationPropagates(t *testing.T) {
	parent, cancel := WithCancel(nil)
	child := WithTimeout(parent, time.Hour)
	cancel()
	if err := child.Err(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("child got %v, want parent's ErrCanceled", err)
	}
	if child.Done() == nil {
		t.Fatal("child exposes no done channel from its chain")
	}
}

func TestDoneObservesAncestorCancellation(t *testing.T) {
	// Regression: a caller that inserts its own cancel link must still see
	// ancestor cancellation on Done() — previously Done() returned only the
	// nearest cancelable link, hiding the batch-level cancel from the sweep
	// attempt supervisor.
	parent, pcancel := WithCancel(nil)
	child, ccancel := WithCancel(parent)
	defer ccancel()
	select {
	case <-child.Done():
		t.Fatal("fresh child Done already closed")
	default:
	}
	pcancel()
	select {
	case <-child.Done():
	case <-time.After(time.Second):
		t.Fatal("child Done() never observed parent cancellation")
	}
	if err := child.Err(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("child got %v, want ErrCanceled", err)
	}
}

func TestDoneObservesAncestorThroughDeadlineLinks(t *testing.T) {
	// The sweep attempt chain: batch cancel → point deadline → attempt
	// cancel → attempt deadline. Cancelling the root must close the channel
	// Done() returns at the bottom of the chain.
	root, rcancel := WithCancel(nil)
	point := WithTimeout(root, time.Hour)
	att, acancel := WithCancel(point)
	defer acancel()
	leaf := WithTimeout(att, time.Hour)
	rcancel()
	select {
	case <-leaf.Done():
	case <-time.After(time.Second):
		t.Fatal("leaf Done() never observed root cancellation through deadline links")
	}
}

func TestOwnCancelStillClosesDone(t *testing.T) {
	parent, pcancel := WithCancel(nil)
	defer pcancel()
	child, ccancel := WithCancel(parent)
	ccancel()
	select {
	case <-child.Done():
	case <-time.After(time.Second):
		t.Fatal("child Done() not closed by its own cancel")
	}
	if err := parent.Err(); err != nil {
		t.Fatalf("child cancel leaked to parent: %v", err)
	}
}

func TestEarliestDeadlineWins(t *testing.T) {
	parent := WithTimeout(nil, 10*time.Millisecond)
	child := WithTimeout(parent, time.Hour)
	dl, ok := child.Deadline()
	if !ok {
		t.Fatal("no deadline")
	}
	if time.Until(dl) > time.Second {
		t.Fatalf("child deadline %v ignores earlier parent deadline", dl)
	}
	time.Sleep(20 * time.Millisecond)
	if err := child.Err(); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("got %v, want ErrBudgetExceeded via parent deadline", err)
	}
}

func TestFromContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	tok := FromContext(ctx)
	if err := tok.Err(); err != nil {
		t.Fatalf("live context tripped: %v", err)
	}
	cancel()
	if err := tok.Err(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("got %v, want ErrCanceled", err)
	}

	dctx, dcancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer dcancel()
	dtok := FromContext(dctx)
	if _, ok := dtok.Deadline(); !ok {
		t.Fatal("context deadline not adopted")
	}
	time.Sleep(20 * time.Millisecond)
	if err := dtok.Err(); !Is(err) {
		t.Fatalf("got %v, want a budget error", err)
	}
}

func TestIsHelper(t *testing.T) {
	if Is(nil) {
		t.Fatal("Is(nil)")
	}
	if Is(errors.New("other")) {
		t.Fatal("Is(other)")
	}
	if !Is(ErrCanceled) || !Is(ErrBudgetExceeded) {
		t.Fatal("Is misses its own sentinels")
	}
}

// TestDeadlineEnforcedByCancelIsBudgetExceeded: a supervisor that enforces
// a deadline by cancelling a link (as the sweep engine's attempt timer does)
// can cancel between Err's deadline check and its done-channel check. The
// trip must still read as ErrBudgetExceeded, never ErrCanceled.
func TestDeadlineEnforcedByCancelIsBudgetExceeded(t *testing.T) {
	const trials = 3000
	for i := 0; i < trials; i++ {
		link, cancel := WithCancel(nil)
		tok := WithTimeout(link, 200*time.Microsecond)
		dl, _ := tok.Deadline()
		go func() {
			time.Sleep(time.Until(dl))
			for time.Now().Before(dl) {
			}
			cancel()
		}()
		var err error
		for err == nil {
			err = tok.Err()
		}
		if !errors.Is(err, ErrBudgetExceeded) {
			t.Fatalf("trial %d: got %v, want ErrBudgetExceeded", i, err)
		}
		<-link.Done()
	}
}
