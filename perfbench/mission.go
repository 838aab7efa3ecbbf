package main

import (
	"fmt"
	"math/rand/v2"

	"olfui/internal/flow"
	"olfui/internal/logic"
	"olfui/internal/netlist"
	"olfui/internal/sim"
)

// missionTraces generates count mission-mode stimuli of cycles cycles each
// for the bench design n, from seed alone. Every cycle holds the test and
// debug pins (scan_en, scan_in, debug_en) at 0 and rstn at 1, drives
// exactly one of op0-op3 to 1, and draws every data input from the seed:
// the mission model the scenarios prove untestability under, so a graded
// detection can never contradict a scenario's proof.
func missionTraces(n *netlist.Netlist, seed uint64, count, cycles int) ([]flow.PatternSet, error) {
	pis := n.PrimaryInputs()
	inputs := make([]netlist.NetID, len(pis))
	held := make([]logic.V, len(pis)) // X marks a data input drawn per cycle
	var ops []int
	pins := 0
	for i, g := range pis {
		inputs[i] = n.Gates[g].Out
		switch n.Gates[g].Name {
		case "scan_en", "scan_in", "debug_en":
			held[i] = logic.Zero
			pins++
		case "rstn":
			held[i] = logic.One
			pins++
		case "op0", "op1", "op2", "op3":
			held[i] = logic.Zero
			ops = append(ops, i)
		default:
			held[i] = logic.X
		}
	}
	if len(ops) != 4 || pins != 4 {
		return nil, fmt.Errorf("design %s lacks the mission pins (%d of op0-op3, %d of scan_en, scan_in, debug_en, rstn)",
			n.Name, len(ops), pins)
	}
	rng := rand.New(rand.NewPCG(seed, 0x6d697373696f6e)) // second word: "mission"
	sets := make([]flow.PatternSet, count)
	for s := range sets {
		stim := sim.Stimulus{Inputs: inputs, Cycles: make([][]logic.V, cycles)}
		for c := range stim.Cycles {
			row := make([]logic.V, len(held))
			for i, v := range held {
				if v == logic.X {
					v = logic.FromBit(rng.Uint64())
				}
				row[i] = v
			}
			row[ops[rng.IntN(len(ops))]] = logic.One
			stim.Cycles[c] = row
		}
		sets[s] = flow.PatternSet{Name: fmt.Sprintf("mission%d", s), Stim: stim}
	}
	return sets, nil
}
