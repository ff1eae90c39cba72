package sim

// StepCounts returns the lines the machine stepped since Reset, how many of
// them took the known-miss walk, and how many of those the warm's tape
// took, for the external test package's warm benchmark and count test.
func (m *Machine) StepCounts() (lines, knownMisses, taped uint64) {
	return m.lines, m.knownMisses, m.taped
}
