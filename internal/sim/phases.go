package sim

// PhaseSample records one phase occurrence's counts, used by the
// representative-execution-window validation (§3.2): the method is sound
// only if different occurrences of a phase behave alike.
type PhaseSample struct {
	Phase        string
	Instructions uint64
	L2Misses     uint64
	WallCycles   uint64
}

// SamplePhases runs po's process through the warm start exactly as Run
// does (prologue, initialization, warm-up pass), then runs the
// steady-state phase sequence `repeats` times, recording each phase
// occurrence separately. This is the measurement behind the paper's
// claim that "in all but one case the standard deviation of both the
// number of instructions and the miss rate is less than 1% of the
// mean".
func (m *Machine) SamplePhases(po ProcessOptions, repeats int) ([][]PhaseSample, error) {
	p, err := m.solo(po)
	if err != nil {
		return nil, err
	}
	phases, err := m.warmStart(p, po)
	if err != nil {
		return nil, err
	}
	samples := make([][]PhaseSample, len(phases))
	for r := 0; r < repeats; r++ {
		for pi, ph := range phases {
			d, err := m.measure(func() error { return m.runRegions(p, ph.Regions) })
			if err != nil {
				return nil, err
			}
			samples[pi] = append(samples[pi], PhaseSample{
				Phase:        ph.Name,
				Instructions: d.Total(func(s *CPUStats) uint64 { return s.Instructions }),
				L2Misses:     d.Total(func(s *CPUStats) uint64 { return s.L2Misses }),
				WallCycles:   d.WallCycles,
			})
		}
	}
	return samples, nil
}
