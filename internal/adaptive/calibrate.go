package adaptive

// calibrator holds the loop's state for the calibrated result-size
// estimator (Params.Estimator == EstimatorCalibrated): the number of
// activations observed while calibrating, the frozen per-(child·parent)
// match rate κ̂ once calibration ends, and a ring of recent
// (observed, childSeen, parentSeen) triples providing the lagged window
// the change detector tests against.
type calibrator struct {
	seen    int
	kappa   float64
	history [][3]int
}

// observe updates the calibration state from the observation's raw
// counters and fills its calibrated-estimator fields (CalibratedKappa
// and the Prev* lagged counters). It is a no-op for other estimators.
// The activation that freezes κ̂ still assesses as calibrating: the
// kappa exposed to the assessor is the value before this observation.
func (cal *calibrator) observe(p Params, obs *Observation) {
	if p.Estimator != EstimatorCalibrated {
		return
	}
	obs.CalibratedKappa = cal.kappa
	// The change detector compares against the observation from
	// CalibrationActivations activations ago (or the oldest held).
	lag := p.CalibrationActivations
	if n := len(cal.history); n > 0 {
		i := n - lag
		if i < 0 {
			i = 0
		}
		prev := cal.history[i]
		obs.PrevObserved, obs.PrevChildSeen, obs.PrevParentSeen = prev[0], prev[1], prev[2]
	}
	cal.history = append(cal.history, [3]int{obs.Observed, obs.ChildSeen, obs.ParentSeen})
	if len(cal.history) > lag+1 {
		cal.history = cal.history[len(cal.history)-lag-1:]
	}
	if cal.kappa == 0 {
		// Still calibrating. κ = O/(childSeen·parentSeen) estimates
		// 1/|R|; early activations carry few matches and huge relative
		// variance, so calibration runs until both the configured
		// activation count and a minimum match mass have accumulated.
		// The windowed test tolerates the residual estimation error,
		// unlike an absolute test.
		cal.seen++
		const minCalibrationMatches = 30
		if cal.seen >= p.CalibrationActivations &&
			obs.Observed >= minCalibrationMatches &&
			obs.ChildSeen > 0 && obs.ParentSeen > 0 {
			cal.kappa = float64(obs.Observed) / (float64(obs.ChildSeen) * float64(obs.ParentSeen))
		}
	}
}
