package sim

import (
	"testing"

	"svf/internal/pipeline"
	"svf/internal/synth"
)

// TestCellKeyGolden pins the exact cell-identity strings. They are the
// journal's record keys, the shard pool's poison-tracking keys and the
// service's job fingerprints: a change here orphans every existing journal
// and renames every job, so it must be deliberate.
func TestCellKeyGolden(t *testing.T) {
	wide := pipeline.EightWide()
	wide.Name = "custom"
	vm := synth.StackVM()
	traffic := func(pol pipeline.StackPolicy) string {
		return TrafficCellKey(vm, pol, 8<<10, 100_000, 4096)
	}
	cases := []struct {
		name, got, want string
	}{
		{
			"spec profile, default options",
			RunCellKey(synth.Gzip(), Options{}),
			"run|b06976ef61e7368497fd5360d2e2f681|{Machine:{Name: Width:16 IFQSize:64 RUUSize:256 LSQSize:128 IntALU:16 IntMult:4 ALULat:1 MultLat:3 DL1Ports:2 StoreForwardLat:3 MispredictPenalty:3 SquashPenalty:4 NoAddrCalcOp:false NoSquash:false NoMorph:false} DL1Ports:0 DL1SizeBytes:0 DL1HitLatency:0 Policy:baseline StackSizeBytes:8192 StackPorts:0 SVFInfinite:false SVFAdaptiveDisable:false SVFBanks:0 Predictor:perfect GshareBits:14 MaxInsts:1000000 CtxSwitchPeriod:0 FaultPlan: Probe:<nil>}",
		},
		{
			"non-default machine and predictor",
			RunCellKey(synth.Crafty(), Options{
				Machine: wide, DL1Ports: 3, Policy: pipeline.PolicySVF, StackPorts: 2,
				Predictor: PredBimodal, MaxInsts: 50_000,
			}),
			"run|3e56db7e1efa1e0e196d829542989350|{Machine:{Name: Width:8 IFQSize:32 RUUSize:128 LSQSize:64 IntALU:16 IntMult:4 ALULat:1 MultLat:3 DL1Ports:3 StoreForwardLat:3 MispredictPenalty:3 SquashPenalty:4 NoAddrCalcOp:false NoSquash:false NoMorph:false} DL1Ports:0 DL1SizeBytes:0 DL1HitLatency:0 Policy:svf StackSizeBytes:8192 StackPorts:2 SVFInfinite:false SVFAdaptiveDisable:false SVFBanks:0 Predictor:bimodal GshareBits:14 MaxInsts:50000 CtxSwitchPeriod:0 FaultPlan: Probe:<nil>}",
		},
		{"stack-stress traffic, baseline", traffic(pipeline.PolicyNone), "traffic|a7f712ad51d21289c913a57cf0bd5dff|0|8192|100000|4096"},
		{"stack-stress traffic, svf", traffic(pipeline.PolicySVF), "traffic|a7f712ad51d21289c913a57cf0bd5dff|1|8192|100000|4096"},
		{"stack-stress traffic, stack cache", traffic(pipeline.PolicyStackCache), "traffic|a7f712ad51d21289c913a57cf0bd5dff|2|8192|100000|4096"},
		{"stack-stress traffic, rse", traffic(pipeline.PolicyRSE), "traffic|a7f712ad51d21289c913a57cf0bd5dff|3|8192|100000|4096"},
	}
	for _, tc := range cases {
		if tc.got != tc.want {
			t.Errorf("%s:\n got %q\nwant %q", tc.name, tc.got, tc.want)
		}
	}
}
