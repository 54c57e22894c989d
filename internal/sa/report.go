package sa

// Machine-readable reporting for `audit effects`: per-method verdict rows,
// coverage totals, and witness chains for every reachable non-replayable
// method, checked through the shared strict decoder (internal/schema).

import (
	"fmt"

	"replayopt/internal/dex"
	"replayopt/internal/schema"
)

// ReportSchemaVersion is bumped whenever the JSON layout changes shape.
const ReportSchemaVersion = 1

// Report is the `audit effects` document for one program.
type Report struct {
	SchemaVersion int             `json:"schema_version"`
	App           string          `json:"app" schema:"nonempty"`
	Methods       []MethodReport  `json:"methods"`
	Coverage      Coverage        `json:"coverage"`
	Witnesses     []WitnessReport `json:"witnesses"`
}

// MethodReport is one per-method verdict row.
type MethodReport struct {
	Name string `json:"name" schema:"nonempty"`
	// Effect is the interprocedural summary, Local the method's own
	// instructions only.
	Effect     string   `json:"effect" schema:"nonempty"`
	Local      string   `json:"local_effect" schema:"nonempty"`
	Class      string   `json:"class" schema:"nonempty"`
	Hazards    []string `json:"hazards"`
	Replayable bool     `json:"replayable"`
	// Reachable under the RTA call graph from the program entry.
	Reachable bool `json:"reachable"`
}

// Coverage aggregates the verdicts.
type Coverage struct {
	Methods             int     `json:"methods"`
	Replayable          int     `json:"replayable"`
	ReplayablePct       float64 `json:"replayable_pct"`
	Reachable           int     `json:"reachable"`
	ReachableReplayable int     `json:"reachable_replayable"`
}

// WitnessReport explains one hazard of one reachable method: the shortest
// call chain to the instruction-level source.
type WitnessReport struct {
	Method string   `json:"method" schema:"nonempty"`
	Hazard string   `json:"hazard" schema:"nonempty"`
	Chain  []string `json:"chain"`
	Cause  string   `json:"cause"`
}

// Report builds the `audit effects` report from an analysis result.
func (r *Result) Report(app string) *Report {
	rep := &Report{SchemaVersion: ReportSchemaVersion, App: app}
	name := func(id dex.MethodID) string { return r.Prog.Methods[id].Name }
	for id := range r.Prog.Methods {
		sum := r.Summary[id]
		mr := MethodReport{
			Name:       r.Prog.Methods[id].Name,
			Effect:     sum.String(),
			Local:      r.Local[id].String(),
			Class:      sum.Class().String(),
			Hazards:    []string{},
			Replayable: sum.Replayable(),
			Reachable:  r.Graph.Reachable[id],
		}
		for _, h := range sum.Hazards() {
			mr.Hazards = append(mr.Hazards, h.BitName())
		}
		rep.Methods = append(rep.Methods, mr)

		rep.Coverage.Methods++
		if mr.Replayable {
			rep.Coverage.Replayable++
		}
		if mr.Reachable {
			rep.Coverage.Reachable++
			if mr.Replayable {
				rep.Coverage.ReachableReplayable++
			}
		}
		if mr.Reachable && !mr.Replayable {
			for _, h := range sum.Hazards() {
				w := WitnessReport{Method: mr.Name, Hazard: h.BitName()}
				for _, hop := range r.Witness(dex.MethodID(id), h) {
					w.Chain = append(w.Chain, name(hop))
				}
				if len(w.Chain) > 0 {
					w.Cause = r.LocalCause(r.witnessEnd(dex.MethodID(id), h), h)
				}
				rep.Witnesses = append(rep.Witnesses, w)
			}
		}
	}
	if rep.Coverage.Methods > 0 {
		rep.Coverage.ReplayablePct =
			100 * float64(rep.Coverage.Replayable) / float64(rep.Coverage.Methods)
	}
	return rep
}

// witnessEnd returns the final method of id's witness chain for hazard (the
// local source), or id itself when there is no chain.
func (r *Result) witnessEnd(id dex.MethodID, hazard Effect) dex.MethodID {
	chain := r.Witness(id, hazard)
	if len(chain) == 0 {
		return id
	}
	return chain[len(chain)-1]
}

// Check holds the report's cross-field invariants: coverage totals reconcile
// with the rows, a replayable method lists no hazards, and every witness
// chain is non-empty and starts at its method.
func (r *Report) Check() error {
	if r.SchemaVersion != ReportSchemaVersion {
		return fmt.Errorf("schema_version %d, want %d", r.SchemaVersion, ReportSchemaVersion)
	}
	replayable, reachable, reachRep := 0, 0, 0
	for i, m := range r.Methods {
		if m.Replayable && len(m.Hazards) > 0 {
			return fmt.Errorf("methods[%d]: replayable yet lists hazards", i)
		}
		if m.Replayable {
			replayable++
		}
		if m.Reachable {
			reachable++
			if m.Replayable {
				reachRep++
			}
		}
	}
	for _, c := range []struct {
		key       string
		got, want int
	}{
		{"methods", r.Coverage.Methods, len(r.Methods)},
		{"replayable", r.Coverage.Replayable, replayable},
		{"reachable", r.Coverage.Reachable, reachable},
		{"reachable_replayable", r.Coverage.ReachableReplayable, reachRep},
	} {
		if c.got != c.want {
			return fmt.Errorf("coverage.%s = %d, rows say %d", c.key, c.got, c.want)
		}
	}
	for i, w := range r.Witnesses {
		if len(w.Chain) == 0 {
			return fmt.Errorf("witnesses[%d].chain: empty", i)
		}
		if w.Chain[0] != w.Method {
			return fmt.Errorf("witnesses[%d].chain starts at %q, not %q", i, w.Chain[0], w.Method)
		}
	}
	return nil
}

// ValidateReportJSON strictly decodes a JSON-encoded Report and checks it.
func ValidateReportJSON(data []byte) error {
	return schema.Decode(data, new(Report))
}
