package pll

import (
	"encoding/json"

	"repro/internal/wfloat"
)

func toWfloats(in []float64) []wfloat.Float {
	if in == nil {
		return nil
	}
	out := make([]wfloat.Float, len(in))
	for i, v := range in {
		out[i] = wfloat.Float(v)
	}
	return out
}

func fromWfloats(in []wfloat.Float) []float64 {
	if in == nil {
		return nil
	}
	out := make([]float64, len(in))
	for i, v := range in {
		out[i] = float64(v)
	}
	return out
}

// contributorJSON / resultJSON are the wire forms: dB masks and jitters ride
// wfloat.Float, because a mask hits -Inf dBc/Hz wherever a contributor's
// linear power underflows to zero (a floor disabled mid-grid, a highpass at
// DC); grids and realizations are finite by construction and stay plain
// numbers.
type contributorJSON struct {
	Name      string         `json:"name"`
	LdBc      []wfloat.Float `json:"l_dbc"`
	JitterSec wfloat.Float   `json:"jitter_sec"`
}

type resultJSON struct {
	CarrierHz    float64           `json:"carrier_hz"`
	FHz          []float64         `json:"f_hz"`
	LdBc         []wfloat.Float    `json:"l_dbc"`
	Contributors []contributorJSON `json:"contributors"`
	BandHz       [2]float64        `json:"band_hz"`
	JitterRad    wfloat.Float      `json:"jitter_rad"`
	JitterSec    wfloat.Float      `json:"jitter_sec"`
	Phase        []float64         `json:"phase,omitempty"`
	SampleRateHz float64           `json:"sample_rate_hz,omitempty"`
}

// MarshalJSON implements json.Marshaler so a Result round-trips loss-free
// through the job API, the journal and the CLI, -Inf mask points included.
func (r *Result) MarshalJSON() ([]byte, error) {
	w := resultJSON{
		CarrierHz:    r.CarrierHz,
		FHz:          r.FHz,
		LdBc:         toWfloats(r.LdBc),
		BandHz:       r.BandHz,
		JitterRad:    wfloat.Float(r.JitterRad),
		JitterSec:    wfloat.Float(r.JitterSec),
		Phase:        r.Phase,
		SampleRateHz: r.SampleRateHz,
	}
	if r.Contributors != nil {
		w.Contributors = make([]contributorJSON, len(r.Contributors))
		for i, c := range r.Contributors {
			w.Contributors[i] = contributorJSON{Name: c.Name, LdBc: toWfloats(c.LdBc), JitterSec: wfloat.Float(c.JitterSec)}
		}
	}
	return json.Marshal(w)
}

// UnmarshalJSON implements json.Unmarshaler.
func (r *Result) UnmarshalJSON(data []byte) error {
	var w resultJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	*r = Result{
		CarrierHz:    w.CarrierHz,
		FHz:          w.FHz,
		LdBc:         fromWfloats(w.LdBc),
		BandHz:       w.BandHz,
		JitterRad:    float64(w.JitterRad),
		JitterSec:    float64(w.JitterSec),
		Phase:        w.Phase,
		SampleRateHz: w.SampleRateHz,
	}
	if w.Contributors != nil {
		r.Contributors = make([]Contributor, len(w.Contributors))
		for i, c := range w.Contributors {
			r.Contributors[i] = Contributor{Name: c.Name, LdBc: fromWfloats(c.LdBc), JitterSec: float64(c.JitterSec)}
		}
	}
	return nil
}
