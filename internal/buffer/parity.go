package buffer

import "sort"

// Erasure-coded stash banks (Cohen & Cassuto, "Coding for Improved
// Throughput Performance in Network Switches"): completed end-to-end stash
// copies are striped into fixed-width parity groups of k members, one
// member per bank, plus one XOR parity flit run stored in yet another
// bank. Losing any single member — a bank failure, or a read blocked on a
// busy bank — can then be served by XOR of the k-1 survivors and the
// parity instead of falling back to source-endpoint retransmission.
//
// The tracker is pure bookkeeping: the simulator never XORs payload bytes.
// A reconstruction is modeled as a latency (reading k-1 survivors plus
// parity through the side band) after which the rebuilt copy appears in a
// fresh bank; the retained payload, when the pool keeps payloads, travels
// with the in-flight reconstruction record owned by the switch core.

// MaxParityWidth bounds the configurable group width k.
const MaxParityWidth = 16

// parityMember records one enrolled copy: which packet, how many flits,
// and which bank (stash port) holds it.
type parityMember struct {
	pktID uint64
	size  uint8
	bank  int16
}

// Parity-group lifecycle: a group opens, accumulates up to k members (one
// per bank), then seals by placing its parity flit run in a bank outside
// the member set. A full group that cannot find parity space waits in the
// seal queue and is retried whenever pool space frees.
const (
	gFree   uint8 = iota // on the free list
	gOpen   uint8 = iota // accepting members (n < k)
	gSealQ  uint8 = iota // full, awaiting parity placement
	gSealed uint8 = iota // parity resident; members reconstructable
)

type parityGroup struct {
	members    [MaxParityWidth]parityMember
	bankSet    uint64 // banks occupied by members (never the parity bank)
	n          uint8
	state      uint8
	parityBank int16 // -1 unless sealed
	paritySize uint8 // flits of parity = max member size at seal time
}

// ParityTracker maintains the parity groups of one switch's stash banks.
// It is owned by the switch partition exactly like the pools it fronts:
// mutated from the switch's Step and from the serial fault hooks, never
// concurrently.
type ParityTracker struct {
	k     int //stashsim:derived -- structural; rebuilt from the configuration
	pools []*StashPool

	// groups is a recycled slab: freeG holds reusable indices, openG the
	// accepting groups in first-fit scan order, sealQ the full groups
	// awaiting parity space (records go stale when a queued group loses a
	// member; staleness is detected by state and dropped lazily).
	groups []parityGroup
	freeG  []int32
	openG  []int32
	sealQ  []int32
	byPkt  map[uint64]int32

	//stashsim:transient -- FailCandidates result buffer
	scratch []uint64 // FailCandidates result buffer, reused across failures

	// Cumulative event counts, read by telemetry and the audit.
	SealedGroups    int64 // seals performed (parity flit runs minted)
	SealsDeferred   int64 // full groups that had to wait for parity space
	GroupsDissolved int64 // sealed groups dissolved by an unrecoverable loss
}

// NewParityTracker builds a tracker of width k over the given per-port
// pools (indexed by bank). Pools with zero capacity never receive members
// or parity.
func NewParityTracker(k int, pools []*StashPool) *ParityTracker {
	if k < 2 || k > MaxParityWidth {
		panic("buffer: parity width outside [2, MaxParityWidth]")
	}
	if len(pools) > 64 {
		panic("buffer: parity tracker exceeds the 64-bank set mask")
	}
	return &ParityTracker{
		k:     k,
		pools: pools,
		byPkt: make(map[uint64]int32),
	}
}

// K returns the configured group width.
//
//stashsim:noalloc
func (t *ParityTracker) K() int { return t.k }

// Members returns the number of currently enrolled copies.
func (t *ParityTracker) Members() int { return len(t.byPkt) }

// OnStore enrolls a newly completed stash copy into a parity group. It
// returns the parity flits minted and groups sealed as a result (the new
// member may have filled a group), to be folded into the switch's created
// count and seal counter.
//
//stashsim:noalloc
func (t *ParityTracker) OnStore(pktID uint64, size uint8, bank int) (minted, sealed int) {
	if old, ok := t.byPkt[pktID]; ok {
		// A copy of this packet is already enrolled (a source-endpoint
		// retransmission re-stashed it); supersede the stale membership.
		t.removeMember(old, pktID)
	}
	return t.enroll(pktID, size, int16(bank))
}

// OnDelete removes a copy freed by a positive ACK from its group. The
// member's data was present, so the parity XOR-out is free and a sealed
// group stays sealed over the survivors. Freed space may unblock deferred
// seals, so the seal queue is retried; the minted/sealed results are
// accounted like OnStore's.
//
//stashsim:noalloc
func (t *ParityTracker) OnDelete(pktID uint64) (minted, sealed int) {
	if gi, ok := t.byPkt[pktID]; ok {
		t.removeMember(gi, pktID)
	}
	return t.retrySeals()
}

// OnCopyLost removes a copy destroyed by a bank failure. Unlike OnDelete
// the member's data is gone, so a sealed group's parity is permanently
// stale: the group dissolves and its survivors re-enroll into fresh
// groups (possibly minting new parity). protected reports whether the
// copy was parity-covered when it died — a reconstruction that should
// have happened but could not.
//
//stashsim:noalloc
func (t *ParityTracker) OnCopyLost(pktID uint64) (minted, sealed int, protected bool) {
	gi, ok := t.byPkt[pktID]
	if !ok {
		return 0, 0, false
	}
	g := &t.groups[gi]
	if g.state != gSealed {
		t.removeMember(gi, pktID)
		return 0, 0, false
	}
	t.pools[g.parityBank].DropParity(int(g.paritySize))
	var surv [MaxParityWidth]parityMember
	ns := 0
	for i := 0; i < int(g.n); i++ {
		m := g.members[i]
		delete(t.byPkt, m.pktID)
		if m.pktID != pktID {
			surv[ns] = m
			ns++
		}
	}
	g.n = 0
	t.freeGroup(gi)
	t.GroupsDissolved++
	for i := 0; i < ns; i++ {
		m2, s2 := t.enroll(surv[i].pktID, surv[i].size, surv[i].bank)
		minted += m2
		sealed += s2
	}
	return minted, sealed, true
}

// FailCandidates processes the parity side of a bank failure and returns
// the members that can be reconstructed, in ascending packet-id order.
// Groups whose parity flit lived in the failing bank lose it (and requeue
// for sealing elsewhere); members of still-sealed groups resident in the
// failing bank are reconstructable from their survivors + parity. The
// caller decides per candidate whether to reconstruct (ExtractCopy +
// BeginRecon) before invalidating the rest with the pool's FailBank.
// No seals are attempted here — retry them with RetrySeals after the
// failure has been fully applied, so fresh parity is never placed into
// the bank that is about to be cleared.
//
// The returned slice is reused by the next call.
func (t *ParityTracker) FailCandidates(bank int) []uint64 {
	for gi := range t.groups {
		g := &t.groups[gi]
		if g.state != gSealed || int(g.parityBank) != bank {
			continue
		}
		t.pools[bank].DropParity(int(g.paritySize))
		g.parityBank, g.paritySize = -1, 0
		if int(g.n) == t.k {
			g.state = gSealQ
			t.sealQ = append(t.sealQ, int32(gi))
			t.SealsDeferred++
		} else {
			g.state = gOpen
			t.openG = append(t.openG, int32(gi))
		}
	}
	t.scratch = t.scratch[:0]
	for gi := range t.groups {
		g := &t.groups[gi]
		if g.state != gSealed || g.bankSet&(1<<uint(bank)) == 0 {
			continue
		}
		for i := 0; i < int(g.n); i++ {
			if int(g.members[i].bank) == bank {
				t.scratch = append(t.scratch, g.members[i].pktID)
				break
			}
		}
	}
	sort.Slice(t.scratch, func(i, j int) bool { return t.scratch[i] < t.scratch[j] })
	return t.scratch
}

// PickTarget chooses the bank that will receive a reconstructed copy:
// outside the member's group (members and parity must stay on distinct
// banks for the rebuilt group to be re-protectable), not the failing
// bank, with the most free space that fits the copy; ties break to the
// lowest index. It reports false when no bank can hold the copy, in
// which case the loss degrades to endpoint recovery.
func (t *ParityTracker) PickTarget(pktID uint64, size, avoid int) (int, bool) {
	gi, ok := t.byPkt[pktID]
	if !ok {
		return -1, false
	}
	g := &t.groups[gi]
	best, bestFree := -1, size-1
	for b := range t.pools {
		if b == avoid || int16(b) == g.parityBank || g.bankSet&(1<<uint(b)) != 0 {
			continue
		}
		p := t.pools[b]
		if p.Capacity() == 0 {
			continue
		}
		if free := p.Free(); free > bestFree {
			best, bestFree = b, free
		}
	}
	return best, best >= 0
}

// BeginRecon removes a member whose reconstruction is starting. The group
// stays sealed over the survivors: the XOR-out is modeled as completing
// together with the rebuild, and the rebuilt copy re-enrolls fresh via
// OnStore when it lands.
//
//stashsim:noalloc
func (t *ParityTracker) BeginRecon(pktID uint64) {
	gi, ok := t.byPkt[pktID]
	if !ok {
		panic("buffer: BeginRecon for unenrolled copy")
	}
	t.removeMember(gi, pktID)
}

// CanServeDegraded reports whether a blocked read of this packet's copy
// could be served by reconstruction instead: the copy is a member of a
// sealed group, so the k-1 survivors + parity in other banks carry it.
//
//stashsim:noalloc
func (t *ParityTracker) CanServeDegraded(pktID uint64) bool {
	gi, ok := t.byPkt[pktID]
	return ok && t.groups[gi].state == gSealed
}

// RetrySeals retries the deferred seal queue (after a failure has freed
// space) and returns the minted/sealed totals like OnStore.
//
//stashsim:noalloc
func (t *ParityTracker) RetrySeals() (minted, sealed int) { return t.retrySeals() }

// ParityFlitsTotal sums the live parity flits across every sealed group;
// the invariant checker balances it against the pools' parity occupancy.
func (t *ParityTracker) ParityFlitsTotal() int {
	n := 0
	for gi := range t.groups {
		if g := &t.groups[gi]; g.state == gSealed {
			n += int(g.paritySize)
		}
	}
	return n
}

// AuditParity walks every live group in slab order for the invariant
// checker: groupFn once per sealed group (parity accounting), memberFn
// once per member of any live group (membership accounting). Audit-only.
func (t *ParityTracker) AuditParity(groupFn func(parityBank, paritySize int), memberFn func(pktID uint64, bank int)) {
	for gi := range t.groups {
		g := &t.groups[gi]
		if g.state == gFree {
			continue
		}
		if g.state == gSealed {
			groupFn(int(g.parityBank), int(g.paritySize))
		}
		for i := 0; i < int(g.n); i++ {
			memberFn(g.members[i].pktID, int(g.members[i].bank))
		}
	}
}

// enroll adds a copy to the first open group missing its bank, opening a
// new group when none fits, and attempts to seal a group it fills.
//
//stashsim:noalloc
func (t *ParityTracker) enroll(pktID uint64, size uint8, bank int16) (minted, sealed int) {
	gi := int32(-1)
	for _, idx := range t.openG {
		if t.groups[idx].bankSet&(1<<uint(bank)) == 0 {
			gi = idx
			break
		}
	}
	if gi < 0 {
		gi = t.allocGroup()
		//lint:allow allocfree -- amortized: the open list shrinks back as groups fill
		t.openG = append(t.openG, gi)
	}
	g := &t.groups[gi]
	g.members[g.n] = parityMember{pktID: pktID, size: size, bank: bank}
	g.n++
	g.bankSet |= 1 << uint(bank)
	t.byPkt[pktID] = gi
	if int(g.n) == t.k {
		t.removeOpen(gi)
		g.state = gSealQ
		if t.trySeal(gi) {
			return int(g.paritySize), 1
		}
		//lint:allow allocfree -- amortized: the seal queue drains as space frees
		t.sealQ = append(t.sealQ, gi)
		t.SealsDeferred++
	}
	return 0, 0
}

// trySeal places a full group's parity flit run: the bank must be outside
// the member set, stash-capable, and hold the group's widest member; the
// freest such bank wins (lowest index on ties), mirroring the JSQ bias.
//
//stashsim:noalloc
func (t *ParityTracker) trySeal(gi int32) bool {
	g := &t.groups[gi]
	size := 0
	for i := 0; i < int(g.n); i++ {
		if s := int(g.members[i].size); s > size {
			size = s
		}
	}
	best, bestFree := -1, size-1
	for b := range t.pools {
		if g.bankSet&(1<<uint(b)) != 0 {
			continue
		}
		p := t.pools[b]
		if p.Capacity() == 0 {
			continue
		}
		if free := p.Free(); free > bestFree {
			best, bestFree = b, free
		}
	}
	if best < 0 {
		return false
	}
	t.pools[best].AddParity(size)
	g.parityBank = int16(best)
	g.paritySize = uint8(size)
	g.state = gSealed
	t.SealedGroups++
	return true
}

// retrySeals re-attempts every queued group, compacting in place. Stale
// records — groups that reopened or dissolved while queued — are dropped
// by the state check.
//
//stashsim:noalloc
func (t *ParityTracker) retrySeals() (minted, sealed int) {
	w := 0
	for _, gi := range t.sealQ {
		g := &t.groups[gi]
		if g.state != gSealQ {
			continue
		}
		if t.trySeal(gi) {
			minted += int(g.paritySize)
			sealed++
			continue
		}
		t.sealQ[w] = gi
		w++
	}
	t.sealQ = t.sealQ[:w]
	return minted, sealed
}

// removeMember drops one member from its group and transitions the group:
// an emptied open group frees, a queued group reopens (its seal-queue
// record goes stale), a sealed group stays sealed over the survivors and
// frees — dropping its parity — only when the last member leaves.
//
//stashsim:noalloc
func (t *ParityTracker) removeMember(gi int32, pktID uint64) {
	g := &t.groups[gi]
	for i := 0; i < int(g.n); i++ {
		if g.members[i].pktID != pktID {
			continue
		}
		bank := g.members[i].bank
		g.n--
		g.members[i] = g.members[g.n]
		g.bankSet &^= 1 << uint(bank)
		delete(t.byPkt, pktID)
		switch g.state {
		case gOpen:
			if g.n == 0 {
				t.removeOpen(gi)
				t.freeGroup(gi)
			}
		case gSealQ:
			g.state = gOpen
			//lint:allow allocfree -- amortized: the open list shrinks back as groups fill
			t.openG = append(t.openG, gi)
		case gSealed:
			if g.n == 0 {
				t.pools[g.parityBank].DropParity(int(g.paritySize))
				t.freeGroup(gi)
			}
		}
		return
	}
	panic("buffer: parity member index out of sync")
}

// removeOpen drops a group from the open list preserving scan order.
//
//stashsim:noalloc
func (t *ParityTracker) removeOpen(gi int32) {
	for i, idx := range t.openG {
		if idx == gi {
			copy(t.openG[i:], t.openG[i+1:])
			t.openG = t.openG[:len(t.openG)-1]
			return
		}
	}
}

// allocGroup takes a group slot from the free list, growing the slab when
// it is empty. The slot comes back reset and open.
//
//stashsim:noalloc
func (t *ParityTracker) allocGroup() int32 {
	var gi int32
	if n := len(t.freeG); n > 0 {
		gi = t.freeG[n-1]
		t.freeG = t.freeG[:n-1]
	} else {
		//lint:allow allocfree -- amortized slab growth; groups recycle via freeG
		t.groups = append(t.groups, parityGroup{})
		gi = int32(len(t.groups) - 1)
	}
	t.groups[gi] = parityGroup{state: gOpen, parityBank: -1}
	return gi
}

// freeGroup recycles an emptied group slot.
//
//stashsim:noalloc
func (t *ParityTracker) freeGroup(gi int32) {
	t.groups[gi] = parityGroup{state: gFree, parityBank: -1}
	//lint:allow allocfree -- amortized: the free list caps at the group high-water mark
	t.freeG = append(t.freeG, gi)
}
