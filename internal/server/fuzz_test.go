package server

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/harness"
)

// FuzzJobRequest throws arbitrary bytes at request decoding and
// validation, with the handler's decoder settings. validate and
// harness.Check must never panic, and a workload or program request
// both accept must resolve to a machine configuration that validates:
// the worker would otherwise fail a job admission already promised
// could run.
func FuzzJobRequest(f *testing.F) {
	co := []CoRunnerRequest{{}}
	prog := "program p\narray a elems=64\nphase m occurs=1\n  nest n parallel iters=4 inner=4 work=1 sched=even\n    load a outer=4\n"
	// Seeds: request shapes the server tests submit, accepted and
	// rejected alike.
	for _, req := range []JobRequest{
		fastReq(),
		multiReq(),
		{Workload: "tomcatv", CPUs: 16, Scale: 4},
		{Workload: "swim", CPUs: 2, Scale: 64, Fidelity: "sampled"},
		{Workload: "tomcatv", CPUs: 1, Scale: 64, Fidelity: "full", Attr: true},
		{Workload: "tomcatv", CPUs: 1, Scale: 64, Fidelity: "sampled", Variant: "dynamic-recoloring"},
		{Workload: "tomcatv", Fidelity: "approximate"},
		{Workload: "tomcatv", CPUs: 8, Machine: "alpha", Topology: "sliced-llc4"},
		{Workload: "tomcatv", Topology: "mesh-9"},
		{Workload: "tomcatv", CPUs: 4, Scale: 64, CoRunners: []CoRunnerRequest{{}, {}}, Sched: "partition"},
		{Workload: "tomcatv", CPUs: 4, Scale: 64, CoRunners: co, Isolate: true, IsolationDomain: 1},
		{Workload: "tomcatv", CoRunners: []CoRunnerRequest{{Workload: "linpack"}}},
		{Workload: "tomcatv", Sched: "timeslice"},
		{Program: prog, CPUs: 1, Scale: 64},
		{Program: prog, CoRunners: co},
		{TraceID: "0000"},
		{TraceID: "0000", Fidelity: "sampled", Prefetch: true},
		{Workload: "tomcatv", CPUs: 99},
		{Workload: "tomcatv", Scale: 100000},
		{Workload: "tomcatv", TimeoutMS: -1},
		{},
	} {
		b, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"workload": "tomcatv", "bogus": 1}`))
	f.Add([]byte(`{"workload": "tomcatv"} trailing`))
	f.Add([]byte(`[1, 2]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := decodeJobRequest(bytes.NewReader(data))
		if err != nil {
			return
		}
		spec, _, errInfo := req.validate()
		if errInfo != nil || req.TraceID != "" {
			// A trace job's width is only known once admit resolves the id.
			return
		}
		if harness.Check(spec) != nil {
			// admit rejects what Check rejects.
			return
		}
		if err := spec.Config().Validate(); err != nil {
			t.Fatalf("accepted request %s resolves to an invalid machine: %v", data, err)
		}
	})
}
