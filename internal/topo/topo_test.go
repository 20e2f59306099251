package topo

import (
	"math"
	"testing"
	"testing/quick"
)

func paperTopo() Dragonfly { return Dragonfly{P: 5, A: 11, H: 5} }

func TestPaperDimensions(t *testing.T) {
	d := paperTopo()
	if d.Groups() != 56 {
		t.Fatalf("groups %d, want 56", d.Groups())
	}
	if d.NumSwitches() != 616 {
		t.Fatalf("switches %d, want 616", d.NumSwitches())
	}
	if d.NumEndpoints() != 3080 {
		t.Fatalf("endpoints %d, want 3080 (paper)", d.NumEndpoints())
	}
	if d.Radix() != 20 {
		t.Fatalf("radix %d, want 20", d.Radix())
	}
}

func TestPortClassLayout(t *testing.T) {
	d := paperTopo()
	counts := map[LinkClass]int{}
	for p := 0; p < d.Radix(); p++ {
		counts[d.PortClass(p)]++
	}
	if counts[Endpoint] != 5 || counts[Local] != 10 || counts[Global] != 5 {
		t.Fatalf("port split %v, want 5/10/5", counts)
	}
}

func TestLocalPortSymmetry(t *testing.T) {
	d := paperTopo()
	for from := 0; from < d.A; from++ {
		for to := 0; to < d.A; to++ {
			if from == to {
				continue
			}
			p := d.LocalPortTo(from, to)
			if d.PortClass(p) != Local {
				t.Fatalf("LocalPortTo(%d,%d)=%d is not a local port", from, to, p)
			}
		}
	}
}

func TestLocalPortToSelfPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	paperTopo().LocalPortTo(3, 3)
}

func TestNeighborInvolution(t *testing.T) {
	// Following a link and following it back must return to the origin.
	for _, d := range []Dragonfly{paperTopo(), {P: 2, A: 4, H: 2}, {P: 3, A: 6, H: 3}} {
		for sw := 0; sw < d.NumSwitches(); sw++ {
			for p := d.P; p < d.Radix(); p++ {
				nsw, np := d.Neighbor(sw, p)
				if nsw == sw {
					t.Fatalf("self-link at switch %d port %d", sw, p)
				}
				bsw, bp := d.Neighbor(nsw, np)
				if bsw != sw || bp != p {
					t.Fatalf("link (%d,%d)->(%d,%d)->(%d,%d) not involutive",
						sw, p, nsw, np, bsw, bp)
				}
			}
		}
	}
}

func TestGlobalConnectivityCompletes(t *testing.T) {
	// Every pair of groups must be joined by exactly one global link.
	d := Dragonfly{P: 2, A: 4, H: 2}
	links := map[[2]int]int{}
	for sw := 0; sw < d.NumSwitches(); sw++ {
		for p := d.P + d.A - 1; p < d.Radix(); p++ {
			nsw, _ := d.Neighbor(sw, p)
			g1, g2 := d.Group(sw), d.Group(nsw)
			if g1 == g2 {
				t.Fatalf("global link within group %d", g1)
			}
			key := [2]int{min(g1, g2), max(g1, g2)}
			links[key]++
		}
	}
	want := d.Groups() * (d.Groups() - 1) / 2
	if len(links) != want {
		t.Fatalf("%d group pairs linked, want %d", len(links), want)
	}
	for pair, n := range links {
		if n != 2 { // seen once from each side
			t.Fatalf("pair %v seen %d times, want 2", pair, n)
		}
	}
}

func TestGlobalRouteConsistency(t *testing.T) {
	d := paperTopo()
	if err := quick.Check(func(a, b uint8) bool {
		g := int(a) % d.Groups()
		tg := int(b) % d.Groups()
		if g == tg {
			return true
		}
		swG, portG, swT, portT := d.GlobalRoute(g, tg)
		nsw, np := d.Neighbor(swG, portG)
		return nsw == swT && np == portT && d.Group(swG) == g && d.Group(swT) == tg
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEndpointMapping(t *testing.T) {
	d := paperTopo()
	for ep := 0; ep < d.NumEndpoints(); ep++ {
		sw, port := d.EndpointSwitch(ep)
		if d.PortClass(port) != Endpoint {
			t.Fatalf("endpoint %d maps to non-endpoint port %d", ep, port)
		}
		if d.EndpointID(sw, port) != ep {
			t.Fatalf("endpoint %d mapping not invertible", ep)
		}
	}
}

func TestValidate(t *testing.T) {
	if err := (Dragonfly{P: 0, A: 1, H: 1}).Validate(); err == nil {
		t.Fatal("accepted zero endpoints")
	}
	if err := paperTopo().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPaperLatencies(t *testing.T) {
	l := PaperLatencies()
	// 5/40/500 ns at 1.3 cycles/ns, rounded up.
	if l.Endpoint != 7 || l.Local != 52 || l.Global != 650 {
		t.Fatalf("latencies %+v", l)
	}
	if l.Of(Endpoint) != 7 || l.Of(Local) != 52 || l.Of(Global) != 650 {
		t.Fatal("Of mismatch")
	}
}

func TestTableIMatchesPaper(t *testing.T) {
	m := PaperAsymmetry()
	rows := m.Rows()
	wantPct := []float64{25, 50, 25}
	wantUnder := []float64{0.99, 0.95, 0}
	for i, r := range rows {
		if math.Abs(r.PortsPercent*100-wantPct[i]) > 1e-9 {
			t.Fatalf("row %d pct %.1f want %.1f", i, r.PortsPercent*100, wantPct[i])
		}
		if math.Abs(r.Underutilized-wantUnder[i]) > 1e-9 {
			t.Fatalf("row %d under %.3f want %.3f", i, r.Underutilized, wantUnder[i])
		}
	}
	total := m.TotalUnderutilized()
	if total < 0.72 || total > 0.73 {
		t.Fatalf("total underutilization %.4f, paper says ~72%%", total)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// TestGlobalLinkInverses walks every (g, t) group pair of several
// topologies and asserts GlobalLinkIndex and GlobalLinkTarget are exact
// inverses, with indexes inside [0, A*H). Regression for the g == t hole:
// GlobalLinkIndex(g, g) used to return g-1 — a plausible, in-range index
// that silently aliases the link to group g-1 — instead of panicking the
// way LocalPortTo does on a self port.
func TestGlobalLinkInverses(t *testing.T) {
	for _, d := range []Dragonfly{paperTopo(), {P: 2, A: 4, H: 2}, {P: 3, A: 6, H: 3}, {P: 2, A: 32, H: 1}} {
		G := d.Groups()
		for g := 0; g < G; g++ {
			for tg := 0; tg < G; tg++ {
				if g == tg {
					continue
				}
				k := d.GlobalLinkIndex(g, tg)
				if k < 0 || k >= d.A*d.H {
					t.Fatalf("%+v: GlobalLinkIndex(%d,%d)=%d out of [0,%d)", d, g, tg, k, d.A*d.H)
				}
				if back := d.GlobalLinkTarget(g, k); back != tg {
					t.Fatalf("%+v: GlobalLinkTarget(%d, GlobalLinkIndex(%d,%d)=%d)=%d, want %d", d, g, g, tg, k, back, tg)
				}
			}
			for k := 0; k < d.A*d.H; k++ {
				tg := d.GlobalLinkTarget(g, k)
				if tg == g {
					t.Fatalf("%+v: GlobalLinkTarget(%d,%d) returned the source group", d, g, k)
				}
				if back := d.GlobalLinkIndex(g, tg); back != k {
					t.Fatalf("%+v: GlobalLinkIndex(%d, GlobalLinkTarget(%d,%d)=%d)=%d, want %d", d, g, g, k, tg, back, k)
				}
			}
		}
	}
}

// TestGlobalLinkSelfPanics pins the new guards: a self-group index query
// and an out-of-range link index must panic rather than alias a real link.
func TestGlobalLinkSelfPanics(t *testing.T) {
	d := paperTopo()
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("GlobalLinkIndex self", func() { d.GlobalLinkIndex(3, 3) })
	mustPanic("GlobalLinkTarget negative", func() { d.GlobalLinkTarget(3, -1) })
	mustPanic("GlobalLinkTarget overflow", func() { d.GlobalLinkTarget(3, d.Groups()-1) })
}
