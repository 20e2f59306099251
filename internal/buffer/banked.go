package buffer

// BankedMem models the two-bank interleaved port memory of the paper's
// Section III-B. A port buffer augmented for stashing has four logical
// ports (read/write × normal/stash); the memory is split into an even and
// an odd bank, each serving one access per cycle, and multi-flit sequences
// alternate banks. Each logical stream therefore has a "current bank"
// parity that toggles on every granted access; an access is granted only if
// its bank has not been claimed this cycle.
//
// The model is an admission gate, not a data store: the switch consults it
// before moving flits and counts the denied cycles as bank-conflict stalls.
// Disabling it (Ideal) models 4-ported memory for the ablation study.
type BankedMem struct {
	// Ideal disables conflict modeling entirely; every access is granted.
	//
	//stashsim:derived -- configuration (BankModel), set when the switch is built
	Ideal bool

	parity [4]uint8 // next bank per stream
	taken  [2]bool  // bank claimed this cycle
	cycle  int64

	// Conflicts counts denied accesses (stall cycles) since construction.
	Conflicts int64
	// Accesses counts granted accesses since construction.
	Accesses int64
}

// Access stream identifiers.
const (
	ReadNormal = iota
	WriteNormal
	ReadStash
	WriteStash
)

// Request asks for one flit access on the given stream during cycle now.
// It returns true and claims the stream's current bank when the access can
// proceed this cycle.
//
//stashsim:noalloc
func (m *BankedMem) Request(now int64, stream int) bool {
	if m.Ideal {
		m.Accesses++
		return true
	}
	if now != m.cycle {
		m.cycle = now
		m.taken[0] = false
		m.taken[1] = false
	}
	b := m.parity[stream] & 1
	if m.taken[b] {
		// Write sequences may instead start on the free bank and
		// remember their origin (the paper's "written in the order of
		// availability"); reads must follow their stored order.
		if (stream == WriteNormal || stream == WriteStash) && !m.taken[1-b] {
			m.parity[stream] = 1 - b
			b = 1 - b
		} else {
			m.Conflicts++
			return false
		}
	}
	m.taken[b] = true
	m.parity[stream] = (b + 1) & 1
	m.Accesses++
	return true
}
