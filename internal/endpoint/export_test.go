package endpoint

// HeldState reports what e holds per destination: its send queues, the
// length of its active list, its ECN windows, and how many of those equal
// a fresh one.
func (e *Endpoint) HeldState() (queues, active, windows, fresh int) {
	for _, w := range e.windows {
		if w.size == e.cfg.ECN.WindowMax && w.inflight == 0 {
			fresh++
		}
	}
	return len(e.queues), len(e.active), len(e.windows), fresh
}
