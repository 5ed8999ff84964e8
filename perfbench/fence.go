package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"armbar/internal/absmodel"
	"armbar/internal/explore"
	"armbar/internal/platform"
	"armbar/internal/sim"
)

// The state space of a generated shape ranges over orders of magnitude
// with its noise ops and slot count, so the first N shapes of a seed's
// corpus would make a pass several times longer at one seed than at
// another. Instead a pass draws fencePick shapes from fencePool: the
// indices, in the corpus of seed fencePoolSeed (the one the fencefuzz
// figure uses), of the shapes that had 8,000 to 16,000 explorer states
// when the pool was recorded. The list is frozen, so an explorer change
// that alters state counts leaves the workload's shapes as they are.
const (
	fencePoolSeed = 42
	fencePick     = 128
)

var fencePool = []int{
	14, 39, 47, 56, 59, 72, 103, 116, 135, 138, 146, 157, 168, 176,
	204, 211, 235, 237, 246, 285, 289, 292, 297, 308, 319, 352, 380, 383,
	408, 412, 471, 490, 514, 573, 586, 594, 597, 619, 666, 674, 677, 708,
	751, 786, 826, 828, 851, 862, 893, 917, 926, 938, 949, 960, 963, 983,
	992, 995, 996, 1018, 1029, 1040, 1059, 1062, 1067, 1068, 1125, 1158, 1164, 1171,
	1176, 1194, 1249, 1258, 1260, 1268, 1269, 1291, 1309, 1315, 1322, 1323, 1326, 1335,
	1345, 1346, 1370, 1375, 1419, 1433, 1452, 1455, 1461, 1463, 1511, 1533, 1545, 1576,
	1585, 1593, 1631, 1643, 1645, 1667, 1687, 1688, 1715, 1825, 1918, 1931, 1954, 1982,
	2039, 2090, 2095, 2113, 2129, 2213, 2217, 2221, 2239, 2245, 2258, 2272, 2277, 2302,
	2356, 2371, 2377, 2382, 2431, 2437, 2481, 2498, 2510, 2521, 2523, 2578, 2585, 2586,
	2589, 2590, 2611, 2640, 2653, 2671, 2676, 2693, 2701, 2710, 2711, 2738, 2792, 2808,
	2809, 2828, 2853, 2877, 2888, 2898, 2915, 2938, 2943, 2976, 3003, 3004, 3034, 3046,
	3059, 3060, 3115, 3116, 3117, 3119, 3168, 3201, 3232, 3244, 3283, 3287, 3319, 3331,
	3361, 3371, 3383, 3405, 3427, 3444, 3475, 3478, 3479, 3480, 3489, 3514, 3525, 3546,
	3570, 3581, 3589, 3632, 3653, 3669, 3687, 3689, 3694, 3700, 3708, 3722, 3739, 3741,
	3753, 3760, 3768, 3779, 3845, 3850, 3876, 3964, 3983, 4015, 4023, 4098, 4146, 4182,
	4184, 4194, 4197, 4208, 4229, 4255, 4296, 4334, 4366, 4378, 4395, 4406, 4428, 4438,
	4465, 4501, 4555, 4578, 4582, 4600, 4601, 4612, 4613, 4632, 4636, 4641, 4653, 4659,
	4691, 4708, 4725, 4775, 4787, 4799, 4802, 4821, 4834, 4843, 4890, 4896, 4901, 4903,
	4911, 4930, 4955, 4967, 5000, 5017, 5022, 5035, 5044, 5055, 5066, 5083, 5168, 5175,
	5198, 5220, 5275, 5294, 5329, 5341, 5348, 5350, 5366, 5370, 5382, 5431, 5443, 5447,
	5449, 5460, 5462, 5469, 5475, 5480, 5493, 5531, 5555, 5564, 5572, 5587, 5605, 5627,
	5644, 5668, 5671, 5700, 5704, 5715, 5759, 5790, 5808, 5809, 5819, 5833, 5834, 5856,
	5867, 5910, 5912, 5921, 5924, 5931, 5963, 5965, 5978, 5996, 6001, 6023, 6027, 6030,
}

// prepareFence generates the seed's draw from the pool up front (it is
// part of the set-up). A pass checks every placement of every fixed and
// drawn shape under WMM and TSO against absmodel's clause oracle: the
// per-case work explore.FuzzShapes fans out with runs=0.
func prepareFence(e *env) (*plan, error) {
	p := platform.Kunpeng916()
	var cells []cell
	for _, s := range explore.All() {
		cells = append(cells, fixedShapeCell(s))
	}
	pick := rand.New(rand.NewSource(e.seed)).Perm(len(fencePool))[:fencePick]
	sort.Ints(pick)
	for _, k := range pick {
		cells = append(cells, genCell(explore.GenOne(fencePoolSeed, fencePool[k]), p))
	}
	return &plan{pass: func(r *passRun) { r.run(cells) }}, nil
}

func genCell(gs *explore.GenShape, p *platform.Platform) cell {
	return cell{name: "gen/" + gs.S.Name, group: "gen/" + gs.Family, run: func(cc *cellCtx) outcome {
		var fc explore.FuzzCase
		cc.time("explore.CheckCase", func() { fc = explore.CheckCase(gs, 0, p, 0) })
		o := outcome{digest: digestOf(fc.Name, fc.Explored, fc.States, fc.Err),
			states: fc.States, placements: fc.Explored}
		if fc.Err != "" {
			o.err = "explorer/GenSafe disagreement: " + firstLine(fc.Err)
		}
		return o
	}}
}

// fixedShapeCell explores every placement of one hand-written shape
// under both modes and checks each verdict against absmodel.FenceSafe,
// the fixed shapes' form of the clause oracle.
func fixedShapeCell(s *explore.Shape) cell {
	return cell{name: "fixed/" + s.Name, group: "fixed", run: func(cc *cellCtx) outcome {
		var o outcome
		var verdicts strings.Builder
		for _, mode := range []sim.Mode{sim.WMM, sim.TSO} {
			for pl := explore.Placement(0); pl <= explore.Naive(s); pl++ {
				var res *explore.Result
				cc.time("explore.Explore", func() { res = explore.Explore(s, pl, mode, explore.DefaultBound) })
				want := absmodel.FenceSafe(s.Name, explore.SlotBarriers(s, pl), mode)
				o.states += res.States
				o.placements++
				fmt.Fprintf(&verdicts, "%t ", res.Safe())
				if res.Safe() != want && o.err == "" {
					o.err = fmt.Sprintf("explorer/FenceSafe disagreement: %s%s under %v", s.Name, pl.Describe(s), mode)
				}
			}
		}
		o.digest = digestOf(s.Name, o.placements, o.states, verdicts.String())
		return o
	}}
}
