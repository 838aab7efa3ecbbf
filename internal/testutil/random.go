package testutil

import (
	"fmt"
	"math/rand"

	"olfui/internal/netlist"
	"olfui/internal/sim"
)

// RandOpts sizes a random netlist.
type RandOpts struct {
	Inputs  int // primary inputs
	Gates   int // combinational gates
	FFs     int // flip-flops (0 for purely combinational)
	Outputs int // primary outputs
}

// RandomNetlist builds a deterministic pseudo-random netlist from a seed:
// combinational gates drawing operands from earlier nets (inputs, flip-flop
// outputs, prior gate outputs), flip-flops closed over random data nets, and
// primary outputs reading random nets biased toward the deepest logic. The
// same seed always yields the same circuit, so failures reproduce. The result
// always validates and levelizes.
func RandomNetlist(seed int64, o RandOpts) *netlist.Netlist {
	rng := rand.New(rand.NewSource(seed))
	n := netlist.New(fmt.Sprintf("rand%d", seed))

	var pool []netlist.NetID
	for i := 0; i < o.Inputs; i++ {
		pool = append(pool, n.Input(fmt.Sprintf("i%d", i)))
	}
	// Flip-flop output nets exist up front so logic can read state; the
	// flip-flops themselves close the loop at the end (AddGateOut).
	ffQ := make([]netlist.NetID, o.FFs)
	for i := range ffQ {
		ffQ[i] = n.NewNet(fmt.Sprintf("q%d", i))
		pool = append(pool, ffQ[i])
	}

	pick := func() netlist.NetID { return pool[rng.Intn(len(pool))] }
	kinds := []netlist.Kind{
		netlist.KAnd, netlist.KNand, netlist.KOr, netlist.KNor,
		netlist.KXor, netlist.KXnor, netlist.KNot, netlist.KBuf, netlist.KMux2,
	}
	for i := 0; i < o.Gates; i++ {
		k := kinds[rng.Intn(len(kinds))]
		name := fmt.Sprintf("g%d", i)
		var out netlist.NetID
		switch k {
		case netlist.KNot, netlist.KBuf:
			out = n.Gates[n.AddGate(k, name, pick())].Out
		case netlist.KMux2:
			out = n.Gates[n.AddGate(k, name, pick(), pick(), pick())].Out
		default:
			out = n.Gates[n.AddGate(k, name, pick(), pick())].Out
		}
		pool = append(pool, out)
	}

	for i, q := range ffQ {
		n.AddGateOut(netlist.KDFF, fmt.Sprintf("ff%d", i), q, pick())
	}
	for i := 0; i < o.Outputs; i++ {
		// Bias outputs toward late (deep) nets so most logic is observable.
		lo := len(pool) / 2
		net := pool[lo+rng.Intn(len(pool)-lo)]
		n.OutputPort(fmt.Sprintf("o%d", i), net)
	}
	return n
}

// ObsWithGatePins returns a random subset of pts (each point kept with
// probability one half) plus two random input pins of combinational gates of
// n, all drawn from rng: an observation set that also reads gate pins, not
// only outputs and flip-flop inputs.
func ObsWithGatePins(rng *rand.Rand, n *netlist.Netlist, pts []sim.ObsPoint) []sim.ObsPoint {
	var out []sim.ObsPoint
	for _, p := range pts {
		if rng.Intn(2) == 0 {
			out = append(out, p)
		}
	}
	var comb []netlist.GateID
	for i := range n.Gates {
		if n.Gates[i].Kind.IsComb() {
			comb = append(comb, netlist.GateID(i))
		}
	}
	for range 2 {
		g := comb[rng.Intn(len(comb))]
		out = append(out, sim.ObsPoint{Gate: g, Pin: int32(rng.Intn(len(n.Gates[g].Ins)))})
	}
	return out
}
