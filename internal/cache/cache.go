// Package cache is the content-addressed result store of the
// characterisation pipeline. A request's identity — model, parameters,
// starting point, effective solver knobs — is condensed by a Fingerprint to
// a SHA-256 key; the Store maps keys to JSON payloads through two tiers (a
// byte-bounded in-memory LRU in front of an optional persistent directory of
// JSON files) and collapses concurrent identical computations with
// singleflight, so N simultaneous requests for the same key cost one
// pipeline run.
//
// Payloads are opaque JSON ([]byte) — the cache knows nothing about
// core.Result, so it serves any (de)serialisable product. Beside each
// memory-tier payload the store keeps an equally opaque note from the caller
// (the sweep engine's checked scalars), which lets a hit skip decoding the
// payload; a payload read from disk, or stored by Put, has no note until the
// caller checks it and calls Note. All methods are safe for concurrent use
// and safe on a nil *Store (a nil store never hits and Do simply computes),
// making the cache a zero-cost optional dependency.
package cache

import (
	"container/list"
	"errors"
	"fmt"
	"sync"
)

// DefaultMaxBytes bounds the in-memory tier when Options.MaxBytes is unset.
const DefaultMaxBytes = 64 << 20 // 64 MiB

// Origin says which tier (if any) satisfied a lookup.
type Origin int

const (
	// OriginComputed: nothing cached or in flight; the caller's compute ran.
	OriginComputed Origin = iota
	// OriginMem: served from the in-memory LRU.
	OriginMem
	// OriginDisk: served from the persistent tier (and promoted to memory).
	OriginDisk
	// OriginShared: served by joining an identical in-flight computation.
	OriginShared
)

// Cached reports whether the value was served without running compute.
func (o Origin) Cached() bool { return o != OriginComputed }

// String implements fmt.Stringer.
func (o Origin) String() string {
	switch o {
	case OriginComputed:
		return "computed"
	case OriginMem:
		return "mem"
	case OriginDisk:
		return "disk"
	case OriginShared:
		return "shared"
	}
	return fmt.Sprintf("Origin(%d)", int(o))
}

// Options configures a Store.
type Options struct {
	// MaxBytes bounds the in-memory LRU by payload bytes
	// (default DefaultMaxBytes). Entries larger than the bound bypass the
	// memory tier entirely (they still reach the disk tier).
	MaxBytes int64
	// Dir, when non-empty, adds the persistent tier: one JSON file per key,
	// written atomically, tolerated as misses when corrupt. The directory is
	// created if needed.
	Dir string
}

// entry is one in-memory LRU element.
type entry struct {
	key  string
	val  []byte
	note any // the caller's note on val (nil: none)
}

// flight is one in-progress computation that concurrent callers join.
type flight struct {
	done chan struct{}
	val  []byte
	note any
	err  error
}

// Store is the two-tier content-addressed store. The zero value is not
// useful; build one with New. A nil *Store is a valid "caching off" value.
type Store struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	lru      *list.List // front = most recent; values are *entry
	idx      map[string]*list.Element
	sf       map[string]*flight
	disk     *diskStore
}

// New builds a Store. It fails only when the disk directory cannot be
// created.
func New(o Options) (*Store, error) {
	mb := o.MaxBytes
	if mb <= 0 {
		mb = DefaultMaxBytes
	}
	s := &Store{
		maxBytes: mb,
		lru:      list.New(),
		idx:      make(map[string]*list.Element),
		sf:       make(map[string]*flight),
	}
	if o.Dir != "" {
		d, err := newDiskStore(o.Dir)
		if err != nil {
			return nil, fmt.Errorf("cache: disk store: %w", err)
		}
		s.disk = d
	}
	return s, nil
}

// Get returns the payload for key from memory or disk, without its note.
// Disk hits are promoted to the memory tier. The returned slice must be
// treated as read-only (it may be shared with other callers).
func (s *Store) Get(key string) ([]byte, bool) {
	v, _, origin := s.lookup(key, true)
	return v, origin.Cached()
}

// lookup is Get plus origin reporting; record=false suppresses hit/miss
// metrics (used by Do, which classifies the outcome itself).
func (s *Store) lookup(key string, record bool) ([]byte, any, Origin) {
	if s == nil || key == "" {
		return nil, nil, OriginComputed
	}
	m := cacheMetrics.Get()
	s.mu.Lock()
	if el, ok := s.idx[key]; ok {
		s.lru.MoveToFront(el)
		e := el.Value.(*entry)
		val, note := e.val, e.note
		s.mu.Unlock()
		if record {
			m.hitsMem.Inc()
		}
		return val, note, OriginMem
	}
	s.mu.Unlock()
	if s.disk != nil {
		if val, ok := s.disk.get(key); ok {
			s.insertMem(key, val, nil)
			if record {
				m.hitsDisk.Inc()
			}
			return val, nil, OriginDisk
		}
	}
	if record {
		m.misses.Inc()
	}
	return nil, nil, OriginComputed
}

// Put stores a JSON payload under key in both tiers, without a note. Non-JSON
// payloads are rejected (the disk envelope embeds the payload verbatim, and
// every legitimate caller stores serialised results anyway); the check
// accepts exactly what json.Valid accepts, in one faster pass.
func (s *Store) Put(key string, payload []byte) error { return s.put(key, payload, nil) }

func (s *Store) put(key string, payload []byte, note any) error {
	if s == nil || key == "" {
		return nil
	}
	if !Valid(payload) {
		return errors.New("cache: payload is not valid JSON")
	}
	s.insertMem(key, payload, note)
	if s.disk != nil {
		s.disk.put(key, payload)
	}
	return nil
}

// Note keeps note beside key's memory-tier entry, provided the entry still
// holds payload itself (the same bytes, not a copy): a caller that has
// checked a payload it was served records that, and later hits return the
// note instead of asking for another check. A no-op when the entry was
// replaced, evicted or never held in memory.
func (s *Store) Note(key string, payload []byte, note any) {
	if s == nil || key == "" || len(payload) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.idx[key]; ok {
		if e := el.Value.(*entry); len(e.val) == len(payload) && &e.val[0] == &payload[0] {
			e.note = note
		}
	}
}

// insertMem adds (or refreshes) a memory-tier entry and evicts from the LRU
// tail until the byte bound holds. Oversized payloads are skipped: evicting
// the whole cache for one giant entry would serve nobody.
func (s *Store) insertMem(key string, val []byte, note any) {
	sz := int64(len(val))
	if sz > s.maxBytes {
		return
	}
	m := cacheMetrics.Get()
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.idx[key]; ok {
		old := el.Value.(*entry)
		s.bytes += sz - int64(len(old.val))
		m.memBytes.Add(float64(sz - int64(len(old.val))))
		old.val, old.note = val, note
		s.lru.MoveToFront(el)
	} else {
		s.idx[key] = s.lru.PushFront(&entry{key: key, val: val, note: note})
		s.bytes += sz
		m.memBytes.Add(float64(sz))
		m.memEntries.Add(1)
	}
	for s.bytes > s.maxBytes {
		tail := s.lru.Back()
		if tail == nil {
			break
		}
		ev := tail.Value.(*entry)
		s.lru.Remove(tail)
		delete(s.idx, ev.key)
		s.bytes -= int64(len(ev.val))
		m.memBytes.Add(-float64(len(ev.val)))
		m.memEntries.Add(-1)
		m.evictions.Inc()
	}
}

// Do returns the payload for key and the note kept beside it, computing
// them at most once across all concurrent callers: a cached value is
// returned immediately; if an identical computation is already in flight the
// caller waits for it and shares its outcome (value and note, or error — a
// shared error means the one computation failed, and each waiter reports it
// verbatim); otherwise compute runs, and a successful result is stored in
// both tiers, its note in memory only.
//
// Failed computations are never cached: the next Do for the key computes
// again. On a nil Store (or empty key), Do just runs compute.
func (s *Store) Do(key string, compute func() ([]byte, any, error)) ([]byte, any, Origin, error) {
	if s == nil || key == "" {
		val, note, err := compute()
		return val, note, OriginComputed, err
	}
	m := cacheMetrics.Get()
	if val, note, origin := s.lookup(key, false); origin.Cached() {
		switch origin {
		case OriginMem:
			m.hitsMem.Inc()
		case OriginDisk:
			m.hitsDisk.Inc()
		}
		return val, note, origin, nil
	}
	s.mu.Lock()
	if fl, ok := s.sf[key]; ok {
		s.mu.Unlock()
		<-fl.done
		m.shared.Inc()
		if fl.err != nil {
			return nil, nil, OriginShared, fl.err
		}
		return fl.val, fl.note, OriginShared, nil
	}
	// Re-check the memory tier under the lock: a flight that completed
	// between lookup and Lock has already stored its value.
	if el, ok := s.idx[key]; ok {
		s.lru.MoveToFront(el)
		e := el.Value.(*entry)
		val, note := e.val, e.note
		s.mu.Unlock()
		m.hitsMem.Inc()
		return val, note, OriginMem, nil
	}
	fl := &flight{done: make(chan struct{})}
	s.sf[key] = fl
	s.mu.Unlock()

	m.misses.Inc()
	m.inflight.Add(1)
	val, note, err := compute()
	if err == nil {
		err = s.put(key, val, note)
	}
	if err == nil {
		fl.val, fl.note = val, note
	} else {
		fl.err = err
	}
	s.mu.Lock()
	delete(s.sf, key)
	s.mu.Unlock()
	m.inflight.Add(-1)
	close(fl.done)
	if err != nil {
		return nil, nil, OriginComputed, err
	}
	return val, note, OriginComputed, nil
}

// Len returns the number of entries in the memory tier.
func (s *Store) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lru.Len()
}

// Bytes returns the payload bytes held by the memory tier.
func (s *Store) Bytes() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}
