package service

import (
	"errors"
	"strings"
	"testing"
)

// FuzzParseJobSpec: every rejection must be a typed *SpecError (the 400
// body contract), every acceptance must yield fully resolved cells, and
// nothing may panic.
func FuzzParseJobSpec(f *testing.F) {
	f.Add([]byte(testSpec()))
	f.Add([]byte(`{"cells":[{"kind":"traffic","bench":"186.crafty.ref","policy":"svf"}]}`))
	f.Add([]byte(`{"cells":[]}`))
	f.Add([]byte(`{not json`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"cells":[null]}`))
	f.Add([]byte(`{"cells":[{"kind":"run"}]}`))
	f.Add([]byte(`{"cells":[{"kind":"run","bench":"no.such"}],"job_deadline_ms":-1}`))
	f.Add([]byte(`{"cells":[{"kind":"run","bench":"186.crafty.ref","profile":{}}]}`))
	f.Add([]byte(`{"cells":[{"kind":"run","bench":"186.crafty.ref","opt":{"MaxInsts":99999999999}}]}`))
	f.Add([]byte(`{"cells":[{"kind":"traffic","bench":"186.crafty.ref","policy":"bogus"}]}`))
	f.Add([]byte(`{"cells":[{"kind":"run","bench":"186.crafty.ref"}]} trailing`))
	f.Add([]byte(`{"cells":[{"kind":"run","bench":"186.crafty.ref","opt":{"FaultPlan":{}}}]}`))
	f.Add([]byte(strings.Repeat(`[`, 10_000)))

	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ParseJobSpec(data)
		if err != nil {
			var se *SpecError
			if !errors.As(err, &se) {
				t.Fatalf("rejection is %T (%v), want *SpecError", err, err)
			}
			if se.Error() == "" {
				t.Fatal("empty rejection message")
			}
			return
		}
		if len(spec.Cells) == 0 || len(spec.Cells) > MaxCellsPerJob {
			t.Fatalf("accepted spec with %d cells", len(spec.Cells))
		}
		if spec.ID() == "" {
			t.Fatal("accepted spec has no identity")
		}
		for i, c := range spec.Cells {
			if c.cell == nil || c.cell.Key() == "" {
				t.Fatalf("cell %d accepted without a resolved identity", i)
			}
			if c.cell.Prof == nil {
				t.Fatalf("cell %d accepted without a resolved profile", i)
			}
			if c.Kind == CellRun && (c.Opt == nil || c.Opt.MaxInsts > MaxCellInsts) {
				t.Fatalf("run cell %d accepted outside the budget: %+v", i, c.Opt)
			}
			if c.Kind == CellTraffic && (c.MaxInsts <= 0 || c.MaxInsts > MaxCellInsts) {
				t.Fatalf("traffic cell %d accepted with budget %d", i, c.MaxInsts)
			}
		}
	})
}
