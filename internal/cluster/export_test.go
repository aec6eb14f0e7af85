package cluster

// FramesRead reports how many frames the coordinator read from its
// workers' control connections.
func (m *Machine) FramesRead() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var n uint64
	for _, w := range m.procs {
		n += w.conn.FramesIn()
	}
	return n
}
