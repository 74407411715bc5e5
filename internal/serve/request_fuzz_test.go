package serve

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"testing"
)

// decodeStrict runs body through the server's own request decoder: the
// body-size limit and DisallowUnknownFields. It reports whether the body was
// accepted.
func decodeStrict(s *Server, body []byte, v any) bool {
	r := httptest.NewRequest("POST", "/", bytes.NewReader(body))
	return s.decodeBody(httptest.NewRecorder(), r, v)
}

// checkRoundTrip is the accepted-body invariant shared by the request fuzz
// targets: the decoded request encodes to a body the server accepts again,
// which decodes to the same request — the same encoding (nil and empty maps
// and slices encode alike) under the same idempotency fingerprint.
func checkRoundTrip[R any](t *testing.T, s *Server, req *R, accept func(*R) bool, record func(*R) jrecord) {
	t.Helper()
	enc, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("encoding an accepted request: %v", err)
	}
	var back R
	if !decodeStrict(s, enc, &back) || !accept(&back) {
		t.Fatalf("the encoding of an accepted request is refused: %s", enc)
	}
	again, err := json.Marshal(&back)
	if err != nil || !bytes.Equal(again, enc) {
		t.Fatalf("request changed over a round trip (%v):\n%s\n%s", err, enc, again)
	}
	if a, b := idemFingerprint(record(req)), idemFingerprint(record(&back)); a != b {
		t.Fatalf("fingerprint changed over a round trip: %s → %s for %s", a, b, enc)
	}
}

// FuzzSweepRequest: a POST /v1/sweep body through the strict decoder and the
// submission checks, without running a job. Nothing panics, and an accepted
// body round-trips to the same request (checkRoundTrip).
func FuzzSweepRequest(f *testing.F) {
	for _, seed := range []string{
		`{"points":[{"name":"a","model":"hopf","params":{"omega":2,"sigma":0.02}}]}`,
		`{"points":[{"model":"ring","params":{"iee":3.31e-4}},{"model":"vanderpol"}],"timeout_ms":500,"no_cache":true,"lease_ttl_ms":1000}`,
		`{"points":[{"model":"hopf","params":{}}]}`,
		`{"Points":[{"Model":"hopf"}]}`,
		`{"points":[]}`,
		`{"points":[{"model":"nope"}]}`,
		`{"points":[{"model":"hopf","params":{"bogus":1}}]}`,
		`{"points":[{"model":"hopf"}],"workers":4}`,
		`{"points":[{"model":"hopf"}],"timeout_ms":1e3}`,
		`{"points":null}`,
		`[]`,
	} {
		f.Add([]byte(seed))
	}
	s := &Server{cfg: Config{}.withDefaults()}
	accept := func(req *SweepRequest) bool {
		return req.validate(s.cfg.MaxPoints) == nil && validateSpecs(req.Points) == nil
	}
	record := func(req *SweepRequest) jrecord {
		return jrecord{Kind: "sweep", Specs: req.Points, TimeoutMS: req.TimeoutMS, NoCache: req.NoCache, LeaseTTLMS: req.LeaseTTLMS}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req SweepRequest
		if decodeStrict(s, body, &req) && accept(&req) {
			checkRoundTrip(t, s, &req, accept, record)
		}
	})
}

// FuzzComposeRequest: a POST /v1/compose body through the strict decoder and
// the submission checks (leg exclusivity, loop and grid shape, spec legs),
// without characterising or composing. Nothing panics, and an accepted body
// round-trips to the same request (checkRoundTrip).
func FuzzComposeRequest(f *testing.F) {
	for _, seed := range []string{
		`{"stages":[{"ref":{"spec":{"model":"hopf","params":{"omega":2}}},"vco":{"spec":{"model":"ring"}},"loop_bandwidth_hz":1e5}],"grid":{"start_hz":1e3,"stop_hz":1e8}}`,
		`{"stages":[{"ref":{"f0_hz":1e7,"c_s2hz":1e-20},"vco":{"fom":{"f0_hz":1e9,"fom_dbc_hz":-180,"power_mw":1}},"loop_bandwidth_hz":1e5,"phase_margin_deg":60,"divider_n":100}],"grid":{"start_hz":1e3,"stop_hz":1e8,"points_per_decade":10},"jitter_band_hz":[1e4,1e7],"realization":{"samples":64,"sample_rate_hz":1e9,"seed":7},"timeout_ms":100,"no_cache":true}`,
		`{"stages":[{"ref":{"f0_hz":1e7,"c_s2hz":1e-20,"per_source":[{"label":"a","c_s2hz":1e-20}],"sources":["a"]},"vco":{"f0_hz":1e9,"c_s2hz":1e-18},"loop_bandwidth_hz":1e5}],"grid":{"start_hz":1e3,"stop_hz":1e8}}`,
		`{"stages":[{"vco":{"spec":{"model":"hopf"},"f0_hz":1},"loop_bandwidth_hz":1e5}],"grid":{"start_hz":1e3,"stop_hz":1e8}}`,
		`{"stages":[{"ref":{"spec":{"model":"hopf","params":{}}},"vco":{"spec":{"model":"hopf"}},"loop_bandwidth_hz":1e5}],"grid":{"start_hz":1e3,"stop_hz":1e8}}`,
		`{"stages":[{"vco":{"spec":{"model":"nope"}},"loop_bandwidth_hz":1e5}],"grid":{"start_hz":1e3,"stop_hz":1e8}}`,
		`{"stages":[],"grid":{"start_hz":1,"stop_hz":2}}`,
		`{"stages":[{"vco":{},"loop_bandwidth_hz":-1}],"grid":{"start_hz":2,"stop_hz":1}}`,
		`{"stages":[{"vco":{"f0_hz":1e9,"c_s2hz":1e-18},"loop_bandwidth_hz":1e5,"extra":1}],"grid":{"start_hz":1e3,"stop_hz":1e8}}`,
		`null`,
	} {
		f.Add([]byte(seed))
	}
	s := &Server{cfg: Config{}.withDefaults()}
	accept := func(req *ComposeRequest) bool {
		return req.validate() == nil && validateSpecs(req.specLegs()) == nil
	}
	record := func(req *ComposeRequest) jrecord {
		return jrecord{Kind: "compose", Specs: req.specLegs(), TimeoutMS: req.TimeoutMS, NoCache: req.NoCache, Compose: req}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req ComposeRequest
		if decodeStrict(s, body, &req) && accept(&req) {
			checkRoundTrip(t, s, &req, accept, record)
		}
	})
}
