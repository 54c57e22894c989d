package tv

// Machine-readable reporting for `audit tv`, checked through the shared
// strict decoder (internal/schema).

import (
	"fmt"

	"replayopt/internal/schema"
)

// ReportSchemaVersion is bumped whenever the JSON layout changes shape.
const ReportSchemaVersion = 1

// Report is the `audit tv` document.
type Report struct {
	SchemaVersion int            `json:"schema_version"`
	Presets       []PresetReport `json:"presets"`
	Fuzz          []DiffFailure  `json:"fuzz"`
}

// PresetReport is one (app, preset) audit: every per-pass verdict plus the
// tallies.
type PresetReport struct {
	App        string       `json:"app" schema:"nonempty"`
	Preset     string       `json:"preset" schema:"nonempty"`
	Verdicts   []VerdictRow `json:"verdicts"`
	Verified   int          `json:"verified"`
	Unverified int          `json:"unverified"`
	Rejected   int          `json:"rejected"`
}

// VerdictRow is one pass application on one function.
type VerdictRow struct {
	Fn      string `json:"fn" schema:"nonempty"`
	Pass    string `json:"pass" schema:"nonempty"`
	Verdict string `json:"verdict"`
	Reason  string `json:"reason,omitempty"`
}

// PresetFromChecker builds a PresetReport from a finished checker.
func PresetFromChecker(app, preset string, c *Checker) PresetReport {
	pr := PresetReport{App: app, Preset: preset, Verdicts: []VerdictRow{}}
	for _, pv := range c.Verdicts {
		pr.Verdicts = append(pr.Verdicts, VerdictRow{
			Fn: pv.Fn, Pass: pv.Pass, Verdict: pv.Verdict.String(), Reason: pv.Reason,
		})
	}
	pr.Verified, pr.Unverified, pr.Rejected = c.Counts()
	return pr
}

// Check holds the report's cross-field invariants: every verdict string is
// legal and each preset's tallies reconcile with its rows.
func (r *Report) Check() error {
	if r.SchemaVersion != ReportSchemaVersion {
		return fmt.Errorf("schema_version %d, want %d", r.SchemaVersion, ReportSchemaVersion)
	}
	for i, pr := range r.Presets {
		counts := map[string]int{}
		for j, row := range pr.Verdicts {
			switch row.Verdict {
			case "verified", "unverified", "rejected":
				counts[row.Verdict]++
			default:
				return fmt.Errorf("presets[%d].verdicts[%d] has unknown verdict %q", i, j, row.Verdict)
			}
		}
		for _, c := range []struct {
			key string
			got int
		}{{"verified", pr.Verified}, {"unverified", pr.Unverified}, {"rejected", pr.Rejected}} {
			if c.got != counts[c.key] {
				return fmt.Errorf("presets[%d].%s = %d, rows say %d", i, c.key, c.got, counts[c.key])
			}
		}
	}
	return nil
}

// ValidateReportJSON strictly decodes a JSON-encoded Report and checks it.
func ValidateReportJSON(data []byte) error {
	return schema.Decode(data, new(Report))
}
