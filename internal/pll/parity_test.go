package pll

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/osc"
)

// TestFOMMatchesCharacterisedVCO is the FOM-vs-characterised parity
// contract: a Hopf oscillator characterised through the full Section-9
// pipeline and the same oscillator entered by datasheet FOM must produce the
// same composite L(f_m) at far-out offsets. The FOM of a characterised
// oscillator follows from the Lorentzian's 1/f² skirt,
// FOM_dB = 10·log10(c·P_mW), so with P = 1 mW the two parameterisations
// agree wherever the offset is far beyond both the loop bandwidth and the
// Lorentzian corner f_c = π·f0²·c.
func TestFOMMatchesCharacterisedVCO(t *testing.T) {
	m, err := osc.Build("hopf", map[string]float64{"omega": 2 * math.Pi * 1e6})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Characterise(m.Sys, m.X0, m.TGuess, nil)
	if err != nil {
		t.Fatalf("characterising hopf: %v", err)
	}
	f0, c := res.F0(), res.C
	if c <= 0 {
		t.Fatalf("hopf characterisation returned c = %g", c)
	}
	corner := math.Pi * f0 * f0 * c
	t.Logf("hopf: f0 = %g Hz, c = %g s²·Hz, corner = %g Hz", f0, c, corner)

	const bw = 100.0 // narrow loop so mid-grid offsets are already ≫ BW
	ref := &Leg{Name: "xo", F0Hz: 1e4, C: 1e-26}
	grid := Grid{StartHz: 1e3, StopHz: 1e5}

	characterised, err := Compose(&Config{
		Stages: []Stage{{Ref: ref, VCO: Leg{F0Hz: f0, C: c}, LoopBandwidthHz: bw}},
		Grid:   grid,
	})
	if err != nil {
		t.Fatal(err)
	}
	byFOM, err := Compose(&Config{
		Stages: []Stage{{
			Ref:             ref,
			VCO:             Leg{FOM: &FOM{F0Hz: f0, FOMdBcHz: 10 * math.Log10(c*1), PowerMW: 1}},
			LoopBandwidthHz: bw,
		}},
		Grid: grid,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, fm := range characterised.FHz {
		if fm < 100*bw || fm < 30*corner {
			continue // near the loop edge or the Lorentzian corner parity is not claimed
		}
		d := characterised.LdBc[i] - byFOM.LdBc[i]
		if math.Abs(d) > 0.1 {
			t.Errorf("at %g Hz: characterised %.3f vs FOM %.3f dBc/Hz (Δ %.3f dB > 0.1)",
				fm, characterised.LdBc[i], byFOM.LdBc[i], d)
		}
	}
}
