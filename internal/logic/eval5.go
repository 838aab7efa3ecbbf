package logic

// Gate-evaluation helpers over the five-valued D-calculus. These mirror the
// ternary gate evaluators used by the simulator so the ATPG engine can settle
// a circuit carrying D/D̄ values with exactly the same pessimism as the
// good-machine simulator (both components follow Kleene semantics).

// Nand returns the complemented conjunction.
func (d D5) Nand(e D5) D5 { return d.And(e).Not() }

// Nor returns the complemented disjunction.
func (d D5) Nor(e D5) D5 { return d.Or(e).Not() }

// Xnor returns the complemented exclusive-or.
func (d D5) Xnor(e D5) D5 { return d.Xor(e).Not() }

// WithFaulty returns d with the faulty-machine component forced to v. This is
// how the ATPG engine injects a stuck-at fault at its site: the good value is
// whatever the circuit computes, the faulty value is pinned.
func (d D5) WithFaulty(v V) D5 { return D5{Good: d.Good, Faulty: v} }

// HasX reports whether either component is unknown — i.e. the value could
// still evolve toward D or D̄ as more inputs are assigned. Fault-effect
// propagation paths (X-paths) run through HasX nets.
func (d D5) HasX() bool { return !d.Good.IsKnown() || !d.Faulty.IsKnown() }
