package sim

import (
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/vm"
)

// TestRunSampledRejects is the rejection table of the sampled entry
// point: processes and machines whose mechanisms need the full
// reference stream, a source with no loop nests to cut windows from,
// and clusterings that do not partition the program's phases. A valid
// clustering on a plain machine is the control row.
func TestRunSampledRejects(t *testing.T) {
	identity := []PhaseCluster{{Rep: 0, Members: []int{0}}, {Rep: 1, Members: []int{1}}, {Rep: 2, Members: []int{2}}}
	recolor := vm.DefaultRecolorPolicy()
	cases := []struct {
		name     string
		opts     func(*Options, *ProcessOptions)
		clusters []PhaseCluster
		want     string // error substring; "" means the run must succeed
	}{
		{"plain machine", nil, identity, ""},
		{"recoloring", func(_ *Options, po *ProcessOptions) { po.Recolor = &recolor }, identity, "dynamic recoloring"},
		{"obs collector", func(o *Options, _ *ProcessOptions) { o.Obs = obs.NewCollector(obs.Options{}) }, identity, "observability collector"},
		{"trace source", func(_ *Options, po *ProcessOptions) {
			po.Source = NewTraceSource("t", &trace.File{})
		}, identity, "need a ProgramSource"},
		{"representative out of range", nil,
			[]PhaseCluster{{Rep: 3, Members: []int{0, 1, 2}}}, "representative 3 out of range"},
		{"duplicated member", nil,
			[]PhaseCluster{{Rep: 0, Members: []int{0, 1}}, {Rep: 1, Members: []int{1, 2}}}, "phase 1 appears in two"},
		{"missing phase", nil,
			[]PhaseCluster{{Rep: 0, Members: []int{0, 1}}}, "phase 2 missing"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prog := makeChunkedProgram(8, 64, 0, 3)
			opts := Options{Config: smallConfig(2)}
			po := ProcessOptions{Source: ProgramSource(prog)}
			if tc.opts != nil {
				tc.opts(&opts, &po)
			}
			if err := compilerLayout(prog, opts.Config); err != nil {
				t.Fatal(err)
			}
			m, err := New(opts)
			if err != nil {
				t.Fatal(err)
			}
			res, err := m.RunSampled(po, tc.clusters)
			if tc.want == "" {
				if err != nil {
					t.Fatal(err)
				}
				if res.Fidelity != FidelitySampled {
					t.Errorf("fidelity %q, want %q", res.Fidelity, FidelitySampled)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want one containing %q", err, tc.want)
			}
		})
	}
}
