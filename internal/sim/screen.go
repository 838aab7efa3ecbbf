package sim

import (
	"olfui/internal/fault"
	"olfui/internal/logic"
	"olfui/internal/netlist"
)

// ScreenRule names the static rule by which Grader.Screen proves a fault
// undetectable.
type ScreenRule uint8

const (
	// ScreenConstant: a ternary pass of the op program, with every input and
	// flip-flop output X and every tie at its value, gives every site net of
	// the fault the stuck value. Ternary simulation is monotone, so each
	// site net carries that value under every complete assignment: the
	// injection never changes a value, and the faulty machine is the good
	// one at every observation point.
	ScreenConstant ScreenRule = iota + 1
	// ScreenUnobservable: no site of the fault lies in the combinational
	// fan-in cone of an observed net, and no site is an observation pin. The
	// fault's effect has no combinational path to any point the grader
	// compares, so no pattern detects it.
	ScreenUnobservable
)

// Screen retires from faults every fault whose joint injection (its site
// and, through the grader's site map, every replica site) one of the two
// ScreenRule rules proves undetectable at the grader's observation points,
// checking the constant rule first. It calls retire with each retired fault
// and its rule, in list order, and returns the faults it kept, in list
// order, in the backing array of faults.
//
// Both rules are fault-independent redundancy identification in the line of
// FIRE (Iyer & Abramovici, IEEE TVLSI 1996) and PROOFS' static screen
// (Niermann, Cheng & Patel, IEEE TCAD 1992): one ternary pass and one cone
// walk serve every fault, and a retired fault is one no search could detect
// on the grader's clone. The ternary pass runs on the grader's own
// simulator, whose values the next grading overwrites.
func (gr *Grader) Screen(faults []fault.FID, retire func(fault.FID, ScreenRule)) []fault.FID {
	if len(faults) == 0 {
		return faults
	}
	s := gr.good
	s.ClearState(logic.X)
	s.EvalComb()
	reach := newObsReach(gr.n, gr.obs, false)
	kept := faults[:0]
	for _, fid := range faults {
		f := gr.u.FaultOf(fid)
		switch {
		case gr.constant(f):
			retire(fid, ScreenConstant)
		case !reach.fault(f, gr.sm):
			retire(fid, ScreenUnobservable)
		default:
			kept = append(kept, fid)
		}
	}
	return kept
}

// constant reports whether every site net of f, primary or replica, holds
// f's stuck value in the settled good machine.
func (gr *Grader) constant(f fault.Fault) bool {
	sa := logic.PVSplat(f.SA)
	held := func(g netlist.GateID) bool {
		net, ok := gr.siteNet(g, f.Pin)
		return ok && gr.good.vals[net] == sa
	}
	if !held(f.Gate) {
		return false
	}
	for _, rep := range gr.sm.Replicas(f.Gate) {
		if !held(rep) {
			return false
		}
	}
	return true
}

// obsReach says whether a fault effect at a site can reach an observation
// point: the site's gate lies in the fan-in cone of an observed net
// (netlist.FaninCone), or the site is itself an observation pin. seq says
// whether the cone crosses flip-flops. Without it a flip-flop's input pins
// are sinks: an effect there waits for a clock edge, so such a site reaches
// only as an observation pin, although the flip-flop's output does.
type obsReach struct {
	n      *netlist.Netlist
	seq    bool
	cone   []bool
	obsPin map[ObsPoint]bool
}

func newObsReach(n *netlist.Netlist, observe []ObsPoint, seq bool) *obsReach {
	seeds := make([]netlist.NetID, len(observe))
	obsPin := make(map[ObsPoint]bool, len(observe))
	for i, p := range observe {
		seeds[i] = n.Gates[p.Gate].Ins[p.Pin]
		obsPin[p] = true
	}
	return &obsReach{n: n, seq: seq, cone: n.FaninCone(seq, seeds...), obsPin: obsPin}
}

// site reports whether pin (or fault.OutputPin) of gate g reaches.
func (r *obsReach) site(g netlist.GateID, pin int32) bool {
	if r.obsPin[ObsPoint{Gate: g, Pin: pin}] {
		return true
	}
	return r.cone[g] && (r.seq || pin == fault.OutputPin || !r.n.Gates[g].Kind.IsState())
}

// fault reports whether some site of f, primary or replica, reaches.
func (r *obsReach) fault(f fault.Fault, sm *fault.SiteMap) bool {
	if r.site(f.Gate, f.Pin) {
		return true
	}
	for _, rep := range sm.Replicas(f.Gate) {
		if r.site(rep, f.Pin) {
			return true
		}
	}
	return false
}
