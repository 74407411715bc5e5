package sweep

import (
	"bytes"
	"encoding/json"
	"errors"
	"strconv"
	"time"

	"repro/internal/budget"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/shooting"
)

// Error kinds carried on the wire so a decoded PointResult still classifies
// with errors.Is against the pipeline's sentinel errors.
const (
	errKindCanceled = "canceled"
	errKindBudget   = "budget"
	errKindPanic    = "panic"
	errKindOther    = "error"
)

// RemoteError is a pipeline error reconstructed from its JSON form: the
// original message plus a kind tag that preserves errors.Is matching for
// budget.ErrCanceled, budget.ErrBudgetExceeded and ErrModelPanic across the
// round trip. The concrete error chain (wrapped stage errors, panic stacks)
// does not survive serialisation; the message text does.
type RemoteError struct {
	Msg  string `json:"msg"`
	Kind string `json:"kind,omitempty"`
}

// Error implements error.
func (e *RemoteError) Error() string { return e.Msg }

// Is maps the wire kind back onto the package sentinels.
func (e *RemoteError) Is(target error) bool {
	switch e.Kind {
	case errKindCanceled:
		return target == budget.ErrCanceled
	case errKindBudget:
		return target == budget.ErrBudgetExceeded
	case errKindPanic:
		return target == ErrModelPanic
	}
	return false
}

// EncodeError converts any pipeline error to its wire form (nil stays nil):
// the message plus the kind tag that keeps errors.Is classification working
// after a round trip. The service layer uses it to report job and point
// errors over the API with their budget/panic identity intact.
func EncodeError(err error) *RemoteError { return encodeErr(err) }

// encodeErr converts an error to its wire form (nil stays nil).
func encodeErr(err error) *RemoteError {
	if err == nil {
		return nil
	}
	kind := errKindOther
	switch {
	case errors.Is(err, budget.ErrCanceled):
		kind = errKindCanceled
	case errors.Is(err, budget.ErrBudgetExceeded):
		kind = errKindBudget
	case errors.Is(err, ErrModelPanic):
		kind = errKindPanic
	}
	return &RemoteError{Msg: err.Error(), Kind: kind}
}

// decodeErr converts a wire error back to an error (nil stays nil).
func decodeErr(w *RemoteError) error {
	if w == nil {
		return nil
	}
	return w
}

// AttemptWire is the wire form of an Attempt.
type AttemptWire struct {
	Rung     int           `json:"rung"`
	RungName string        `json:"rung_name"`
	Error    *RemoteError  `json:"error,omitempty"`
	Trace    core.Trace    `json:"trace"`
	Wall     time.Duration `json:"wall_ns"`
	Flight   []obs.Event   `json:"flight,omitempty"`
}

// Wire converts a to its wire form.
func (a Attempt) Wire() AttemptWire {
	return AttemptWire{
		Rung:     a.Rung,
		RungName: a.RungName,
		Error:    encodeErr(a.Err),
		Trace:    a.Trace,
		Wall:     a.Wall,
		Flight:   a.Flight,
	}
}

// Attempt converts the wire form back.
func (w *AttemptWire) Attempt() Attempt {
	return Attempt{
		Rung:     w.Rung,
		RungName: w.RungName,
		Err:      decodeErr(w.Error),
		Trace:    w.Trace,
		Wall:     w.Wall,
		Flight:   w.Flight,
	}
}

// MarshalJSON implements json.Marshaler.
func (a Attempt) MarshalJSON() ([]byte, error) {
	return json.Marshal(a.Wire())
}

// UnmarshalJSON implements json.Unmarshaler.
func (a *Attempt) UnmarshalJSON(data []byte) error {
	var w AttemptWire
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	*a = w.Attempt()
	return nil
}

// PointResultWire is the wire form of a PointResult: one tree of plain
// structs (this package's, core's and floquet's wire forms), so one
// reflective pass decodes a whole loss-free result; see DESIGN §9 "Store".
// On success Result.PSS and PointResult.PSS alias the same object; the wire
// form elides the duplicate (pss_is_result) and restores the aliasing on
// decode. The "result" member follows "name" and precedes "wall_ns", which
// is never omitted: MarshalParts splits the record there.
type PointResultWire struct {
	Index       int              `json:"index"`
	Name        string           `json:"name"`
	Result      *core.ResultWire `json:"result,omitempty"`
	Error       *RemoteError     `json:"error,omitempty"`
	PSS         *shooting.PSS    `json:"pss,omitempty"`
	PSSIsResult bool             `json:"pss_is_result,omitempty"`
	Attempts    []AttemptWire    `json:"attempts,omitempty"`
	Wall        time.Duration    `json:"wall_ns"`
	Cached      bool             `json:"cached,omitempty"`
}

// Wire converts r to its wire form, sharing its slices and trajectories. An
// undecoded cache hit (Result nil) has its result only as bytes, which
// MarshalJSON splices in; the wire struct's Result stays nil.
func (r PointResult) Wire() PointResultWire {
	w := r.envelope()
	w.Result = r.Result.Wire()
	return w
}

// envelope is Wire without the result: what MarshalParts encodes around the
// result's own bytes.
func (r PointResult) envelope() PointResultWire {
	w := PointResultWire{
		Index:  r.Index,
		Name:   r.Name,
		Error:  encodeErr(r.Err),
		Wall:   r.Wall,
		Cached: r.Cached,
	}
	if r.Attempts != nil {
		w.Attempts = make([]AttemptWire, len(r.Attempts))
		for i, a := range r.Attempts {
			w.Attempts[i] = a.Wire()
		}
	}
	// An undecoded cache hit carries its PSS inside the payload only.
	if r.Result != nil && r.PSS == r.Result.PSS || r.Result == nil && r.payload != nil {
		w.PSSIsResult = true
	} else {
		w.PSS = r.PSS
	}
	return w
}

// PointResult converts the wire form back.
func (w *PointResultWire) PointResult() PointResult {
	r := PointResult{
		Index:  w.Index,
		Name:   w.Name,
		Result: w.Result.Result(),
		Err:    decodeErr(w.Error),
		PSS:    w.PSS,
		Wall:   w.Wall,
		Cached: w.Cached,
	}
	if w.Attempts != nil {
		r.Attempts = make([]Attempt, len(w.Attempts))
		for i := range w.Attempts {
			r.Attempts[i] = w.Attempts[i].Attempt()
		}
	}
	if w.PSSIsResult && r.Result != nil {
		r.PSS = r.Result.PSS
	}
	return r
}

// MarshalJSON implements json.Marshaler. Together with UnmarshalJSON it makes
// a PointResult JSON round-trip loss-free up to error-chain identity: typed
// budget/panic classification and every numeric field survive; wrapped error
// values are flattened to their message (see RemoteError). Callers holding a
// PointResult call it directly: json.Marshal would re-scan the output. It
// is MarshalParts' three parts concatenated.
func (r PointResult) MarshalJSON() ([]byte, error) {
	head, result, tail, err := r.MarshalParts()
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, len(head)+len(result)+len(tail))
	out = append(out, head...)
	out = append(out, result...)
	return append(out, tail...), nil
}

// MarshalParts returns the loss-free encoding in three parts whose
// concatenation is MarshalJSON's output: the envelope up to and including
// the result member's name, the result's bytes, and the rest of the
// envelope. The result is the point's cache payload when it carries one —
// shared, not copied — else Result's own encoding; for a point without a
// result, head is the whole record and result and tail are empty. A writer
// that takes the parts (the result spill's log) moves a cached payload to
// the OS without copying it. Envelope and result are the output of the same
// codec, so the record is byte for byte what encoding the whole tree in one
// pass gives.
func (r PointResult) MarshalParts() (head, result, tail []byte, err error) {
	result = r.payload
	if result == nil && r.Result != nil {
		if result, err = r.Result.MarshalJSON(); err != nil {
			return nil, nil, nil, err
		}
	}
	env, err := json.Marshal(r.envelope())
	if err != nil || result == nil {
		return env, nil, nil, err
	}
	// env opens with {"index":N,"name":"…", and the result member goes
	// right after the name, which ends at the first quote no backslash
	// escapes.
	n := bytes.Index(env, nameKey) + len(nameKey)
	for ; env[n] != '"'; n++ {
		if env[n] == '\\' {
			n++
		}
	}
	n++
	const key = `,"result":`
	head = append(env[:n:n], key...)
	return head, result, env[n:], nil
}

// nameKey precedes the name's string in an envelope.
var nameKey = []byte(`,"name":"`)

// indexKey opens every loss-free record: the index is its first member.
var indexKey = []byte(`{"index":`)
var errNotRecord = errors.New(`sweep: not a record: want one JSON value opening with {"index":N,`)

// SplitIndex checks a record that a hop copies undecoded (a results.jsonl
// line) — one JSON value by the cache's check, opening with {"index":N, as
// MarshalJSON writes it — and returns N and the rest from the comma on:
// AppendIndex(nil, i) plus rest is MarshalJSON's record with Index = i.
func SplitIndex(line []byte) (int, []byte, error) {
	rest, ok := bytes.CutPrefix(line, indexKey)
	n := bytes.IndexByte(rest, ',')
	if !ok || n < 0 || n > len("-9223372036854775808") || !cache.Valid(line) {
		return 0, nil, errNotRecord
	}
	i, err := strconv.Atoi(string(rest[:n]))
	if err != nil || strconv.Itoa(i) != string(rest[:n]) {
		return 0, nil, errNotRecord
	}
	return i, rest[n:], nil
}

// AppendIndex appends the head of point i's loss-free record, {"index":i —
// what SplitIndex cuts off before the comma.
func AppendIndex(b []byte, i int) []byte {
	return strconv.AppendInt(append(b, indexKey...), int64(i), 10)
}

// UnmarshalJSON implements json.Unmarshaler. Callers holding the bytes call
// it directly: json.Unmarshal would scan them twice more first.
func (r *PointResult) UnmarshalJSON(data []byte) error {
	var w PointResultWire
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	*r = w.PointResult()
	return nil
}
