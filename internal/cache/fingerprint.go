package cache

import (
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"strconv"
	"strings"
)

// FingerprintVersion names the key schema: it heads the hashed canonical
// form and prefixes every key. Bump it whenever the bytes cached under a key
// change — the payload's serialisation or the numerics that computed it —
// so that entries older binaries wrote become unreachable (fresh keys)
// instead of mixing with new ones. pnfp2: the adjoint at the orbit's
// resolution, the shooting stop rule that sees weak contraction, and
// c_rel_err on every result. pnfp3: the shooting transient stops once its
// Poincaré returns say the orbit is on its cycle, so Newton starts from
// another phase and the served bits change under unchanged knobs.
const FingerprintVersion = "pnfp3"

// Fingerprint accumulates the identity of one characterisation request —
// model name, parameters, initial state, period guess, effective solver
// knobs — and condenses it to a content address. Fields are an unordered
// set: the key depends only on the (name, value) pairs, never on insertion
// order, so independently-built requests collide exactly when they describe
// the same computation.
type Fingerprint struct {
	fields map[string]string
}

// NewFingerprint returns an empty fingerprint.
func NewFingerprint() *Fingerprint {
	return &Fingerprint{fields: make(map[string]string)}
}

// Set records a string field (last write per key wins).
func (f *Fingerprint) Set(key, val string) *Fingerprint {
	f.fields[key] = val
	return f
}

// SetFloat records a float64 field losslessly (hex floating point).
func (f *Fingerprint) SetFloat(key string, v float64) *Fingerprint {
	return f.Set(key, strconv.FormatFloat(v, 'x', -1, 64))
}

// SetFloats records a float64 slice field losslessly; length is part of the
// encoding, so a prefix never collides with the full slice.
func (f *Fingerprint) SetFloats(key string, vs []float64) *Fingerprint {
	var sb strings.Builder
	sb.WriteString(strconv.Itoa(len(vs)))
	for _, v := range vs {
		sb.WriteByte(',')
		sb.WriteString(strconv.FormatFloat(v, 'x', -1, 64))
	}
	return f.Set(key, sb.String())
}

// SetInt records an integer field.
func (f *Fingerprint) SetInt(key string, v int) *Fingerprint {
	return f.Set(key, strconv.Itoa(v))
}

// SetAll records every pair of m (e.g. core.Options.FingerprintFields()).
func (f *Fingerprint) SetAll(m map[string]string) *Fingerprint {
	for k, v := range m {
		f.fields[k] = v
	}
	return f
}

// Key condenses the fields to the content address: FingerprintVersion, a
// dash, and the hex SHA-256 of the canonical serialisation (version header,
// then "key=value" lines sorted by key, with key and value lengths encoded
// so no concatenation is ambiguous). The dash keeps keys valid file names
// for the disk tier.
func (f *Fingerprint) Key() string {
	keys := make([]string, 0, len(f.fields))
	for k := range f.fields {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	h.Write([]byte(FingerprintVersion))
	h.Write([]byte{'\n'})
	for _, k := range keys {
		v := f.fields[k]
		// Length-prefixed to keep (k="ab", v="c") distinct from (k="a", v="bc").
		h.Write([]byte(strconv.Itoa(len(k))))
		h.Write([]byte{':'})
		h.Write([]byte(k))
		h.Write([]byte{'='})
		h.Write([]byte(strconv.Itoa(len(v))))
		h.Write([]byte{':'})
		h.Write([]byte(v))
		h.Write([]byte{'\n'})
	}
	return FingerprintVersion + "-" + hex.EncodeToString(h.Sum(nil))
}

// CharacterisationKey builds the canonical cache key of one characterisation
// job: model identity (name + parameters), the starting point (x0, period
// guess or estimation horizon), and the effective solver knobs (as returned
// by core.Options.FingerprintFields). Every producer of cacheable
// characterisations — the sweep CLI, the job server, library callers — must
// build keys through this helper so their stores interoperate.
func CharacterisationKey(model string, params map[string]float64, x0 []float64, tGuess float64, optFields map[string]string) string {
	f := NewFingerprint()
	f.Set("model", model)
	for k, v := range params {
		f.SetFloat("param."+k, v)
	}
	f.SetFloats("x0", x0)
	f.SetFloat("tguess", tGuess)
	f.SetAll(optFields)
	return f.Key()
}
