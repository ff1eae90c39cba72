package harness

import (
	"fmt"
	"io"
)

// experiments is the one listing of regenerable tables and figures, in the
// paper's order: RunExperiment dispatches from it, ExperimentIDs and the
// unknown-id error list it.
var experiments = []struct {
	id  string
	run func(*Runner, io.Writer) error
}{
	{"fig1", (*Runner).Figure1},
	{"fig3", (*Runner).Figure3},
	{"fig4", (*Runner).Figure4},
	{"table1", (*Runner).Table1},
	{"table2", (*Runner).Table2},
	{"table3", (*Runner).Table3},
	{"fig6", (*Runner).Figure6},
	{"fig7", (*Runner).Figure7},
	{"fig8", (*Runner).Figure8},
	{"fig9", (*Runner).Figure9},
	{"table4", (*Runner).Table4},
	{"fig10", (*Runner).Figure10},
	{"fig11", (*Runner).Figure11},
	{"fig12", (*Runner).Figure12},
	{"fig13", (*Runner).Figure13},
	{"ablation-optimizers", (*Runner).AblationOptimizers},
	{"ablation-error-model", (*Runner).AblationErrorModel},
	{"ablation-weights", (*Runner).AblationWeights},
	{"ablation-distance", (*Runner).AblationDistance},
	{"ext-compression", (*Runner).ExtCompression},
}

// RunExperiment regenerates one table or figure by id into out.
func RunExperiment(r *Runner, id string, out io.Writer) error {
	for _, e := range experiments {
		if e.id == id {
			return e.run(r, out)
		}
	}
	return fmt.Errorf("harness: unknown experiment %q (known: %v)", id, ExperimentIDs())
}

// ExperimentIDs lists every regenerable experiment id in the paper's order.
func ExperimentIDs() []string {
	out := make([]string, len(experiments))
	for i, e := range experiments {
		out[i] = e.id
	}
	return out
}
