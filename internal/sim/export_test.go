package sim

// StepCounts returns the lines the machine stepped since Reset and how many
// of them took the known-miss walk, for the external test package's warm
// benchmark and count test.
func (m *Machine) StepCounts() (lines, knownMisses uint64) { return m.lines, m.knownMisses }
