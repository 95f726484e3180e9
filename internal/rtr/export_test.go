package rtr

// RegionFingerprints exposes the store fingerprint derivation to the
// external tests and benchmarks, which compile real programs (package rtr
// cannot import the compiler).
func (rt *Runtime) RegionFingerprints() [][32]byte { return rt.regionFingerprints() }
