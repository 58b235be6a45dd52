package radio

import "math"

// Link-budget helpers no run path calls; the radio tests keep them.

// SNR converts an RSSI sample to a signal-to-noise ratio in dB.
func (p Params) SNR(rssiDBm float64) float64 { return rssiDBm - p.NoiseFloorDBm }

// RangeForRSSI returns the distance at which the mean RSSI equals the given
// threshold — the usable radius for a receiver sensitivity.
func (p Params) RangeForRSSI(thresholdDBm float64) float64 {
	// threshold = TxPower - RefLoss - 10*n*log10(d)
	exp := (p.TxPowerDBm - p.RefLossDB - thresholdDBm) / (10 * p.Exponent)
	return math.Pow(10, exp)
}

// LossProbability maps an SNR in dB to a per-packet loss probability on
// the wireless hop with a logistic curve: ~50% at 3 dB, <1% above 10 dB,
// saturating to 1 below 0 dB. The exact curve is a substitution for real
// fading.
func LossProbability(snrDB float64) float64 {
	const midpoint, steepness = 3.0, 1.2
	p := 1 / (1 + math.Exp(steepness*(snrDB-midpoint)))
	if p < 0.0005 { // floor: residual interference loss
		p = 0.0005
	}
	return p
}
