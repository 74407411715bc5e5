package serve

import (
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/osc"
)

// TestRegistryKeysCarryTheSchema: every registry spec's key names the pnfp3
// schema, under which results carry c_rel_err and were computed with the
// adjoint at the orbit's resolution; keys of older schemas miss. An invalid
// spec routes under a key no real key can equal.
func TestRegistryKeysCarryTheSchema(t *testing.T) {
	for _, name := range osc.Models() {
		if key := (PointSpec{Model: name}).RoutingKey(); !strings.HasPrefix(key, "pnfp3-") || len(key) != len("pnfp3-")+64 {
			t.Errorf("%s: key %q is not pnfp3- and a hex sha256", name, key)
		}
	}
	if cache.FingerprintVersion != "pnfp3" {
		t.Errorf("FingerprintVersion = %q", cache.FingerprintVersion)
	}
	if key := (PointSpec{Model: "nosuchmodel", Name: "x"}).RoutingKey(); key != "pnfp3:invalid:nosuchmodel:x" {
		t.Errorf("invalid spec routes under %q", key)
	}
}
