package atpg

import (
	"math/bits"

	"olfui/internal/logic"
	"olfui/internal/netlist"
)

// DefaultProbeThreshold is the number of backtracks a search burns before the
// batched decision probe engages when Options.ProbeThreshold is zero. Easy
// faults (the vast majority) resolve well under it and never pay the probe's
// extra ternary pass; hard searches amortize it over the subtrees it prunes.
const DefaultProbeThreshold = 8

// probeOutcome is probeDecision's instruction to the search loop.
type probeOutcome uint8

const (
	// probePush: push the returned decision normally (both branches open).
	probePush probeOutcome = iota
	// probePushProven: push the returned decision with its sibling branch
	// proven dead — the decision is born flipped, so a failing subtree pops
	// straight through it instead of exploring the sibling.
	probePushProven
	// probeConflict: both branches of the backtraced input are proven dead,
	// which makes the whole current subtree dead — resolve as a conflict.
	probeConflict
)

// probeDecision evaluates up to 64 single-assignment extensions of the
// current partial assignment in one dual-rail parallel-value pass: slot k of
// every PV word simulates good and faulty machines under the current assigns
// plus candidate k's (input, value) override. Two slot facts feed back into
// the search:
//
//   - Dead branch: if under candidate k every injection site's good value is
//     known equal to the stuck value, no completion of that branch ever
//     activates the fault, so no completion detects it. Ternary implication
//     is monotone (known values persist under every refinement), so this is
//     a proof, and pruning the branch cannot change any verdict — the
//     exhaustion argument simply skips a subtree that provably contains no
//     detection.
//   - Immediate divergence: if under candidate k some observation point has
//     known, differing good/faulty values, that candidate is a detection the
//     scalar loop will confirm on the next implication pass — take it first.
//     This is search-order steering only; verdicts never depend on it.
//
// The pass reuses engine-owned arenas (probeGood/probeBad/probeIn), so a
// probing worker allocates nothing.
func (e *Engine) probeDecision(idx int32, v logic.V) (int32, logic.V, probeOutcome) {
	// Fill candidate slots pairwise: the backtraced input first (slots 0/1 =
	// value v / its complement), then every other free, live input.
	ncand := 0
	addPair := func(i int32) {
		e.probeCandIdx[ncand] = i
		e.probeCandVal[ncand] = v
		e.probeCandIdx[ncand+1] = i
		e.probeCandVal[ncand+1] = v.Not()
		ncand += 2
	}
	addPair(idx)
	for i := range e.assignable {
		if int32(i) == idx || e.assigns[i] != logic.X || e.deadIn[i] {
			continue
		}
		if ncand+2 > logic.WordBits {
			break
		}
		addPair(int32(i))
	}
	candMask := ^uint64(0)
	if ncand < logic.WordBits {
		candMask = (uint64(1) << uint(ncand)) - 1
	}

	// Pack per-assignable input words: the current assignment splatted, with
	// each candidate's override in its slot.
	for i, net := range e.assignable {
		e.probeIn[e.pIdx[net]] = logic.PVSplat(e.assigns[i])
	}
	for k := 0; k < ncand; k++ {
		net := e.assignable[e.probeCandIdx[k]]
		pi := e.pIdx[net]
		e.probeIn[pi] = e.probeIn[pi].Set(k, e.probeCandVal[k])
	}

	e.probeEval()

	// Dead-branch accumulation: slots where every site's good value is known
	// equal to the stuck value.
	dead := candMask
	for _, net := range e.siteNets {
		good := e.probeGood[net]
		if e.sa == logic.One {
			dead &= good.L1
		} else {
			dead &= good.L0
		}
		if dead == 0 {
			break
		}
	}

	// Immediate-divergence steering: prefer a candidate whose faulty machine
	// already differs at an observation point, skipping dead slots.
	if det := e.probeDetectMask() & candMask &^ dead; det != 0 {
		k := bits.TrailingZeros64(det)
		return e.probeCandIdx[k], e.probeCandVal[k], probePush
	}

	deadV, deadNotV := dead&1 != 0, dead&2 != 0
	switch {
	case deadV && deadNotV:
		return idx, v, probeConflict
	case deadV:
		return idx, v.Not(), probePushProven
	case deadNotV:
		return idx, v, probePushProven
	}
	return idx, v, probePush
}

// probeEval settles good and faulty machines over the relevance cone N in
// one levelized dual-rail pass from the packed candidate inputs, mirroring
// implyCone with PV words in place of D5 values. The good rail covers all of
// N; the faulty rail is evaluated on F alone, because outside F the faulty
// machine equals the good one: no fault effect reaches those gates, and none
// of them carries a site.
func (e *Engine) probeEval() {
	for _, gid := range e.coneSrc {
		g := &e.n.Gates[gid]
		var pv logic.PV
		switch g.Kind {
		case netlist.KTie0:
			pv = logic.PVAllZero
		case netlist.KTie1:
			pv = logic.PVAllOne
		default:
			pv = e.probeIn[e.pIdx[g.Out]]
		}
		e.probeGood[g.Out] = pv
		if e.injOut[gid] {
			pv = logic.PVSplat(e.sa)
		}
		e.probeBad[g.Out] = pv
	}
	for _, gid := range e.coneGates {
		g := &e.n.Gates[gid]
		good := e.probeEvalGate(gid, g, e.probeGood, false)
		e.probeGood[g.Out] = good
		if e.cone[gid]&coneF == 0 {
			e.probeBad[g.Out] = good
			continue
		}
		bad := e.probeEvalGate(gid, g, e.probeBad, true)
		if e.injOut[gid] {
			bad = logic.PVSplat(e.sa)
		}
		e.probeBad[g.Out] = bad
	}
	e.gateEvals += len(e.coneGates) + len(e.coneF)
}

// probePinVal reads input pin p of gate g from the given rail, applying the
// injection on the faulty rail only.
func (e *Engine) probePinVal(gid netlist.GateID, g *netlist.Gate, p int, vals []logic.PV, faulty bool) logic.PV {
	if faulty {
		if p < 64 {
			if e.injPinMask[gid]&(1<<uint(p)) != 0 {
				return logic.PVSplat(e.sa)
			}
		} else if e.injPinWide[netlist.Pin{Gate: gid, In: int32(p)}] {
			return logic.PVSplat(e.sa)
		}
	}
	return vals[g.Ins[p]]
}

func (e *Engine) probeEvalGate(gid netlist.GateID, g *netlist.Gate, vals []logic.PV, faulty bool) logic.PV {
	switch g.Kind {
	case netlist.KBuf:
		return e.probePinVal(gid, g, 0, vals, faulty)
	case netlist.KNot:
		return e.probePinVal(gid, g, 0, vals, faulty).Not()
	case netlist.KAnd, netlist.KNand:
		v := e.probePinVal(gid, g, 0, vals, faulty)
		for p := 1; p < len(g.Ins); p++ {
			v = v.And(e.probePinVal(gid, g, p, vals, faulty))
		}
		if g.Kind == netlist.KNand {
			v = v.Not()
		}
		return v
	case netlist.KOr, netlist.KNor:
		v := e.probePinVal(gid, g, 0, vals, faulty)
		for p := 1; p < len(g.Ins); p++ {
			v = v.Or(e.probePinVal(gid, g, p, vals, faulty))
		}
		if g.Kind == netlist.KNor {
			v = v.Not()
		}
		return v
	case netlist.KXor:
		return e.probePinVal(gid, g, 0, vals, faulty).
			Xor(e.probePinVal(gid, g, 1, vals, faulty))
	case netlist.KXnor:
		return e.probePinVal(gid, g, 0, vals, faulty).
			Xor(e.probePinVal(gid, g, 1, vals, faulty)).Not()
	case netlist.KMux2:
		return logic.PVMux(e.probePinVal(gid, g, netlist.MuxS, vals, faulty),
			e.probePinVal(gid, g, netlist.MuxD0, vals, faulty),
			e.probePinVal(gid, g, netlist.MuxD1, vals, faulty))
	}
	// Unreachable: the cone's gate list holds only combinational gates, and
	// probeEval handles sources before this is called.
	panic("atpg: probe cannot evaluate gate kind")
}

// probeDetectMask returns the slots where some observation point's good and
// faulty values are both known and differ. Only the points in the fault's
// cone can differ.
func (e *Engine) probeDetectMask() uint64 {
	var det uint64
	for _, p := range e.coneObs {
		g := &e.n.Gates[p.Gate]
		good := e.probeGood[g.Ins[p.Pin]]
		bad := e.probePinVal(p.Gate, g, int(p.Pin), e.probeBad, true)
		det |= good.Diff(bad)
	}
	return det
}
