package buffer

import (
	"testing"

	"stashsim/internal/proto"
)

// storeCopy reserves and completes an end-to-end stash copy in a pool.
func storeCopy(p *StashPool, id uint64, size int) {
	p.Reserve(size)
	for i := 0; i < size; i++ {
		p.PutCopy(proto.Flit{PktID: id, Size: uint8(size), Seq: uint8(i)})
	}
}

// mkPools builds n stash pools of the given capacity.
func mkPools(n, capacity int, retain bool) []*StashPool {
	pools := make([]*StashPool, n)
	for i := range pools {
		pools[i] = NewStashPool(capacity, retain)
	}
	return pools
}

func TestParityTrackerSealOnFill(t *testing.T) {
	pools := mkPools(3, 100, false)
	tr := NewParityTracker(2, pools)

	storeCopy(pools[0], 1, 4)
	if minted, sealed := tr.OnStore(1, 4, 0); minted != 0 || sealed != 0 {
		t.Fatalf("first member sealed early: minted %d sealed %d", minted, sealed)
	}
	storeCopy(pools[1], 2, 3)
	minted, sealed := tr.OnStore(2, 3, 1)
	if minted != 4 || sealed != 1 {
		t.Fatalf("fill: minted %d sealed %d, want 4 (max member size) and 1", minted, sealed)
	}
	// The parity landed in the only bank outside the member set.
	if pools[2].ParityFlits() != 4 || tr.ParityFlitsTotal() != 4 {
		t.Fatalf("parity flits: bank2 %d total %d", pools[2].ParityFlits(), tr.ParityFlitsTotal())
	}
	if tr.Members() != 2 || tr.SealedGroups != 1 {
		t.Fatalf("members %d sealed groups %d", tr.Members(), tr.SealedGroups)
	}
	if !tr.CanServeDegraded(1) || !tr.CanServeDegraded(2) {
		t.Fatal("sealed members not reconstructable")
	}
}

func TestParityTrackerOneMemberPerBank(t *testing.T) {
	pools := mkPools(3, 100, false)
	tr := NewParityTracker(2, pools)
	storeCopy(pools[0], 1, 2)
	storeCopy(pools[0], 2, 2)
	tr.OnStore(1, 2, 0)
	// Same bank: must open a second group instead of doubling up.
	if _, sealed := tr.OnStore(2, 2, 0); sealed != 0 {
		t.Fatal("two same-bank members sealed a group")
	}
	storeCopy(pools[1], 3, 2)
	// First-fit: joins pkt 1's older group and seals it.
	if _, sealed := tr.OnStore(3, 2, 1); sealed != 1 {
		t.Fatal("cross-bank member did not seal the first open group")
	}
	if tr.Members() != 3 || !tr.CanServeDegraded(1) || tr.CanServeDegraded(2) {
		t.Fatalf("membership after first-fit seal: %d members", tr.Members())
	}
}

func TestParityTrackerDeferredSealRetries(t *testing.T) {
	pools := mkPools(3, 4, false)
	tr := NewParityTracker(2, pools)
	storeCopy(pools[2], 99, 4) // the only parity-capable bank is full
	storeCopy(pools[0], 1, 4)
	storeCopy(pools[1], 2, 4)
	tr.OnStore(1, 4, 0)
	if _, sealed := tr.OnStore(2, 4, 1); sealed != 0 {
		t.Fatal("sealed with no parity space")
	}
	if tr.SealsDeferred != 1 || tr.CanServeDegraded(1) {
		t.Fatalf("deferred %d", tr.SealsDeferred)
	}
	// Space frees in bank 2; the deferred seal completes on the next event.
	pools[2].Delete(99, 4)
	minted, sealed := tr.OnDelete(99)
	if minted != 4 || sealed != 1 || pools[2].ParityFlits() != 4 {
		t.Fatalf("retry after free: minted %d sealed %d bank2 parity %d",
			minted, sealed, pools[2].ParityFlits())
	}
	if !tr.CanServeDegraded(1) || !tr.CanServeDegraded(2) {
		t.Fatal("retried seal did not protect the members")
	}
}

func TestParityTrackerDeleteKeepsGroupSealed(t *testing.T) {
	pools := mkPools(3, 100, false)
	tr := NewParityTracker(2, pools)
	storeCopy(pools[0], 1, 4)
	storeCopy(pools[1], 2, 4)
	tr.OnStore(1, 4, 0)
	tr.OnStore(2, 4, 1)

	// A positive ACK frees one member; the XOR-out is free, the group
	// stays sealed over the survivor.
	pools[0].Delete(1, 4)
	tr.OnDelete(1)
	if tr.Members() != 1 || !tr.CanServeDegraded(2) {
		t.Fatal("sealed group did not survive a member delete")
	}
	if pools[2].ParityFlits() != 4 {
		t.Fatal("parity dropped while a member remained")
	}
	// The last member leaves: the group frees and the parity with it.
	pools[1].Delete(2, 4)
	tr.OnDelete(2)
	if tr.Members() != 0 || pools[2].ParityFlits() != 0 || tr.ParityFlitsTotal() != 0 {
		t.Fatalf("emptied group kept parity: bank2 %d", pools[2].ParityFlits())
	}
}

func TestParityTrackerCopyLostDissolvesGroup(t *testing.T) {
	pools := mkPools(4, 100, false)
	tr := NewParityTracker(2, pools)
	storeCopy(pools[0], 1, 4)
	storeCopy(pools[1], 2, 4)
	tr.OnStore(1, 4, 0)
	tr.OnStore(2, 4, 1)

	// The copy's data is gone, so the group's parity is stale: the group
	// dissolves, the survivor re-enrolls into a fresh open group.
	_, _, protected := tr.OnCopyLost(1)
	if !protected {
		t.Fatal("sealed member loss not reported as protected")
	}
	if tr.GroupsDissolved != 1 || tr.Members() != 1 {
		t.Fatalf("dissolved %d members %d", tr.GroupsDissolved, tr.Members())
	}
	if tr.ParityFlitsTotal() != 0 || pools[2].ParityFlits() != 0 {
		t.Fatal("stale parity survived the dissolve")
	}
	if tr.CanServeDegraded(2) {
		t.Fatal("survivor still claims protection after dissolve")
	}
	// An unsealed member's loss is not protected.
	if _, _, protected := tr.OnCopyLost(2); protected {
		t.Fatal("open-group member loss reported as protected")
	}
	if tr.Members() != 0 {
		t.Fatalf("members %d after both losses", tr.Members())
	}
}

func TestParityTrackerFailCandidatesAndRecon(t *testing.T) {
	pools := mkPools(4, 100, false)
	tr := NewParityTracker(2, pools)
	storeCopy(pools[0], 1, 4)
	storeCopy(pools[1], 2, 4)
	tr.OnStore(1, 4, 0)
	tr.OnStore(2, 4, 1) // seals; parity in bank 2 (lowest free bank outside {0,1})

	cands := tr.FailCandidates(0)
	if len(cands) != 1 || cands[0] != 1 {
		t.Fatalf("candidates %v, want [1]", cands)
	}
	// The rebuild target must avoid the failing bank, the surviving
	// members' banks, and the parity bank.
	target, ok := tr.PickTarget(1, 4, 0)
	if !ok || target != 3 {
		t.Fatalf("target %d ok %v, want bank 3", target, ok)
	}
	tr.BeginRecon(1)
	if tr.Members() != 1 || !tr.CanServeDegraded(2) {
		t.Fatal("group did not stay sealed over the survivor during recon")
	}
	// The rebuilt copy lands and re-enrolls like a fresh store.
	storeCopy(pools[3], 1, 4)
	tr.OnStore(1, 4, 3)
	if tr.Members() != 2 {
		t.Fatalf("members %d after rebuild landed", tr.Members())
	}
}

func TestParityTrackerFailCandidatesParityBank(t *testing.T) {
	pools := mkPools(3, 100, false)
	tr := NewParityTracker(2, pools)
	storeCopy(pools[0], 1, 4)
	storeCopy(pools[1], 2, 4)
	tr.OnStore(1, 4, 0)
	tr.OnStore(2, 4, 1) // parity in bank 2

	// Failing the parity's own bank unseals the group (no members lost)
	// and defers the reseal; nothing is reconstructable from it.
	if cands := tr.FailCandidates(2); len(cands) != 0 {
		t.Fatalf("candidates %v from a parity-only bank", cands)
	}
	if pools[2].ParityFlits() != 0 || tr.CanServeDegraded(1) {
		t.Fatal("dropped parity still accounted")
	}
	if tr.SealsDeferred != 1 {
		t.Fatalf("deferred %d, want the unsealed full group requeued", tr.SealsDeferred)
	}
	// After the failure is applied the bank is eligible again.
	if minted, sealed := tr.RetrySeals(); minted != 4 || sealed != 1 {
		t.Fatalf("reseal: minted %d sealed %d", minted, sealed)
	}
	if pools[2].ParityFlits() != 4 || !tr.CanServeDegraded(1) {
		t.Fatal("reseal did not restore protection")
	}
}

func TestParityTrackerRestashSupersedes(t *testing.T) {
	pools := mkPools(3, 100, false)
	tr := NewParityTracker(2, pools)
	storeCopy(pools[0], 1, 4)
	tr.OnStore(1, 4, 0)
	// A source-endpoint retransmission re-stashes the packet in another
	// bank; the stale membership is superseded, never duplicated.
	storeCopy(pools[1], 1, 4)
	tr.OnStore(1, 4, 1)
	if tr.Members() != 1 {
		t.Fatalf("members %d after re-stash", tr.Members())
	}
	storeCopy(pools[0], 2, 4)
	if _, sealed := tr.OnStore(2, 4, 0); sealed != 1 {
		t.Fatal("superseded membership blocked the banks")
	}
}

func TestParityTrackerWidthPanics(t *testing.T) {
	pools := mkPools(3, 100, false)
	for _, k := range []int{1, MaxParityWidth + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("k=%d did not panic", k)
				}
			}()
			NewParityTracker(k, pools)
		}()
	}
}

func TestParityTrackerBeginReconUnenrolledPanics(t *testing.T) {
	tr := NewParityTracker(2, mkPools(3, 100, false))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tr.BeginRecon(42)
}

// TestStashPoolFailBankReservedAndParity covers a bank failure striking a
// pool that holds, at once: a pure reservation (space granted, no flit
// arrived yet), a partial copy (header arrived, body pending), a completed
// copy, and a resident parity run. Only the copies with arrived flits are
// invalidated; the untouched reservation completes afterwards and the
// parity ledger is the tracker's to settle, not FailBank's.
func TestStashPoolFailBankReservedAndParity(t *testing.T) {
	p := NewStashPool(100, true)

	storeCopy(p, 32, 4) // completed
	p.Reserve(4)        // pkt 30: granted, no flits arrived yet
	p.Reserve(4)        // pkt 31: header arrived, body pending
	p.PutCopy(proto.Flit{PktID: 31, Size: 4, Seq: 0})
	p.AddParity(3)

	lost := p.FailBank()
	if len(lost) != 2 || lost[0] != 31 || lost[1] != 32 {
		t.Fatalf("lost %v, want [31 32]", lost)
	}
	if p.ParityFlits() != 3 {
		t.Fatalf("FailBank touched the parity ledger: %d", p.ParityFlits())
	}
	// pkt 30's reservation and pkt 31's three pending flits survive.
	if p.Reserved() != 4+3 {
		t.Fatalf("reserved %d after failure, want 7", p.Reserved())
	}
	// pkt 31's stragglers convert straight to freed space.
	for i := 1; i < 4; i++ {
		if p.PutCopy(proto.Flit{PktID: 31, Size: 4, Seq: uint8(i)}) {
			t.Fatal("dead partial copy reported completion")
		}
	}
	// pkt 30 arrives in full and completes normally.
	done := false
	for i := 0; i < 4; i++ {
		done = p.PutCopy(proto.Flit{PktID: 30, Size: 4, Seq: uint8(i)})
	}
	if !done || !p.Live(30) {
		t.Fatal("untouched reservation did not complete after the failure")
	}
	if p.Live(31) || p.Live(32) {
		t.Fatal("failed copies still live")
	}
	if want := int64(1 + 4 + 3); p.FreedFlits() != want {
		t.Fatalf("freed %d flits, want %d", p.FreedFlits(), want)
	}
	if p.Used() != 4+3 { // pkt 30's copy + parity
		t.Fatalf("used %d, want 7", p.Used())
	}
}

// TestStashPoolExtractInstall walks a copy through the in-flight half of a
// parity reconstruction between two banks over one flit pool: extracted
// from the failing bank (destroying its flits), carried with its retained
// payload, and re-minted into the target bank's reservation — or, when the
// rebuild is aborted, its reservation and payload slots freed.
func TestStashPoolExtractInstall(t *testing.T) {
	flits := new(FlitPool)
	src := NewStashPoolIn(flits, 100, true)
	dst := NewStashPoolIn(flits, 100, true)
	storeCopy(src, 7, 4)

	l, ok := src.ExtractCopy(7)
	if !ok || l.Len() != 4 {
		t.Fatalf("ExtractCopy: %d flits, %v", l.Len(), ok)
	}
	if src.Live(7) || src.Used() != 0 || src.FreedFlits() != 4 {
		t.Fatalf("extract left source dirty: used %d freed %d", src.Used(), src.FreedFlits())
	}
	if flits.InUse() != 4 {
		t.Fatalf("extracted payload holds %d slots, want 4", flits.InUse())
	}

	dst.Reserve(4)
	dst.InstallCopy(7, 4, l)
	if !dst.Live(7) || dst.Used() != 4 || dst.Reserved() != 0 {
		t.Fatalf("install: live %v used %d reserved %d", dst.Live(7), dst.Used(), dst.Reserved())
	}
	// The installed copy retransmits like any stored one.
	if got, ok := dst.Retained(7); !ok || got.Len() != 4 {
		t.Fatal("installed copy not retrievable")
	}
	if !dst.Delete(7, 4) || dst.Used() != 0 {
		t.Fatal("installed copy did not delete cleanly")
	}
	if flits.InUse() != 0 {
		t.Fatalf("%d slots in use after the installed copy was deleted", flits.InUse())
	}
	// Extracting a copy that is not live reports false.
	if _, ok := src.ExtractCopy(7); ok {
		t.Fatal("extracted a dead copy")
	}

	// An aborted rebuild releases the target's reservation and frees the
	// payload it carried.
	storeCopy(src, 8, 3)
	l, _ = src.ExtractCopy(8)
	dst.Reserve(3)
	dst.Unreserve(3)
	l.Reset(flits)
	if flits.InUse() != 0 || dst.Used() != 0 {
		t.Fatalf("aborted rebuild left %d slots in use, %d flits committed", flits.InUse(), dst.Used())
	}
}

// TestStashPoolUnreserve covers the aborted-reconstruction path: the
// reservation releases without ever minting a copy.
func TestStashPoolUnreserve(t *testing.T) {
	p := NewStashPool(10, false)
	p.Reserve(4)
	p.Unreserve(4)
	if p.Used() != 0 || p.Free() != 10 {
		t.Fatalf("used %d free %d after unreserve", p.Used(), p.Free())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unreserve underflow did not panic")
		}
	}()
	p.Unreserve(1)
}
