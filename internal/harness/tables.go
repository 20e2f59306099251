package harness

import (
	"fmt"

	"stashsim/internal/stats"
	"stashsim/internal/topo"
	"stashsim/internal/tracegen"
)

// table1 reproduces Table I: the link asymmetry of a canonical dragonfly
// built from symmetric 100 m-provisioned switches, and the port-weighted
// buffer underutilization (the paper's ~72%).
func table1(*Options) ([]Output, error) {
	m := topo.PaperAsymmetry()
	t := &stats.Table{Header: []string{"LinkType", "Length", "PctOfPorts", "BuffersUnderutilized"}}
	names := map[topo.LinkClass]string{
		topo.Endpoint: "Endpoint",
		topo.Local:    "Intra-group",
		topo.Global:   "Inter-group",
	}
	for _, r := range m.Rows() {
		t.AddRow(names[r.Class],
			fmt.Sprintf("< %.0fm", r.MaxLengthM),
			fmtF(r.PortsPercent*100, 0),
			fmtF(r.Underutilized*100, 0)+"%")
	}
	t.AddRow("TOTAL", "", "100", fmtF(m.TotalUnderutilized()*100, 1)+"%")
	return []Output{{Title: "Table I: link asymmetry & buffer underutilization", File: "table1", Table: t}}, nil
}

// table2 reproduces Table II: the DesignForward application trace
// inventory, synthesized by internal/tracegen at the paper's rank counts.
func table2(*Options) ([]Output, error) {
	t := &stats.Table{Header: []string{"Application", "Description", "Ranks", "Messages", "TotalMB"}}
	for _, app := range tracegen.Apps() {
		tr := app.Generate(tracegen.DefaultScale())
		if err := tr.Validate(); err != nil {
			return nil, err
		}
		if tr.Ranks > app.PaperRanks {
			return nil, fmt.Errorf("harness: %s generated %d ranks > paper's %d", app.Name, tr.Ranks, app.PaperRanks)
		}
		t.AddRow(app.Name, app.Description,
			fmt.Sprint(tr.Ranks),
			fmt.Sprint(tr.TotalMessages()),
			fmtF(float64(tr.TotalBytes())/(1<<20), 1))
	}
	return []Output{{Title: "Table II: DesignForward application traces (synthesized)", File: "table2", Table: t}}, nil
}
