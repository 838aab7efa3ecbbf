// Package atpg implements a PODEM-style deterministic test-pattern generator
// over the combinational (full-scan) view of a netlist.
//
// The engine searches over assignments to the controllable inputs — primary
// inputs plus flip-flop outputs treated as pseudo-inputs — using five-valued
// D-calculus implication (logic.D5) on the levelized netlist. Each search
// first computes its fault's relevance cone (cone.go): the gates a fault
// effect can reach, plus their combinational fan-in — every value the search
// ever reads. Each decision step then forward-implies only the part of that
// cone the step changed (event-driven, selective trace), and either reports
// detection (a fault effect D/D̄ reached an observation point), derives the
// next objective (activate the fault, then advance the D-frontier), or
// backtracks. Because PODEM's decision tree ranges over all input
// assignments and every pruning rule is monotone (implication only refines X
// toward known values, never the reverse), exhausting the tree is a proof of
// untestability — which is exactly what the on-line
// functionally-untestable-fault identification flow needs: Untestable
// verdicts are certificates, not failures to detect.
//
// Three checks ask whether a fault effect can still cross a gate: the
// activation check on a not-yet-active site (sitePathOpenAt), the D-frontier
// scan (computeFrontier) and the X-path DFS (xPathFrom). Besides an output
// that is already known, all three treat a deselected 2:1 mux data pin as
// closed: a data pin whose select, read through the injection, is known,
// equal in the good and the faulty machine, and picks the other data pin.
// Both machines' outputs then follow that other pin whatever the deselected
// one carries, and a known value stays known under every extension of the
// assignment, so no extension lets the effect through. This is what proves a
// mission-mode scan mux's scan-path pin untestable at the first implication
// pass (its select tied off by a constraint), instead of the search
// enumerating the logic behind the selected pin. A select that carries an
// error, or whose faulty value is unknown (an injection site on it, or an
// effect reaching it from another frame replica), never blocks. AND- and
// OR-family gates need no such rule: a known controlling side input already
// makes their output known, and XOR never blocks.
//
// Heuristics are SCOAP-lite (netlist.Annotations): objectives pick the
// D-frontier gate with the lowest output observability, and a multiple
// backtrace distributes objective demand down to the inputs weighted by
// controllability.
//
// On top of the single-fault core, GenerateAll drives the collapsed fault
// list through a bounded worker pool with fault dropping. It owns the
// dispatch order: it sorts the classes its replay leaves hardest-first by
// SCOAP detection difficulty, retires the ones its drop grader's static
// screen proves Untestable (a site net held at the stuck value by ternary
// constants, or no site in the combinational fan-in cone of an observation
// point), and its coordinator hands what is left to the workers in that
// order, one class per ask. The engine leaves every input its search did
// not need at X; GenerateAll completes each Detected search's test (every X
// becomes a pseudo-random 0 or 1, seeded by the class's FID) and stores it
// in its drop grader (sim.Grader, PPSFP, 64 tests per word). Before it hands
// a class out, the coordinator checks it against every stored test, so
// incidentally detected faults never reach the deterministic engine. A
// fully specified test drives every net to a definite value, so one test
// drops far more classes than the partial assignment would.
package atpg

import (
	"fmt"
	"sync/atomic"
	"time"

	"olfui/internal/fault"
	"olfui/internal/logic"
	"olfui/internal/netlist"
	"olfui/internal/obs"
	"olfui/internal/sched"
	"olfui/internal/sim"
)

// Verdict is the three-way outcome of targeting one fault.
type Verdict uint8

// Per-fault verdicts.
const (
	// Detected: the engine found an input assignment whose implication
	// carries a fault effect to an observation point. Result.Pattern and
	// Result.State hold the (partial) assignment.
	Detected Verdict = iota
	// Untestable: the decision tree was exhausted without detection. This
	// is a proof that no input assignment detects the fault at the
	// engine's observation points.
	Untestable
	// Aborted: the backtrack limit was hit before either outcome.
	Aborted
)

// String implements fmt.Stringer.
func (v Verdict) String() string {
	switch v {
	case Detected:
		return "detected"
	case Untestable:
		return "untestable"
	case Aborted:
		return "aborted"
	}
	return fmt.Sprintf("Verdict(%d)", uint8(v))
}

// Options configures the engine.
type Options struct {
	// BacktrackLimit bounds the number of decision flips per fault before
	// the engine gives up with Aborted. 0 means DefaultBacktrackLimit.
	BacktrackLimit int
	// Workers bounds GenerateAll's concurrency. 0 means runtime.NumCPU().
	Workers int
	// ObsPoints restricts where fault effects count as detected. Nil means
	// the full-scan set (sim.CombObsPoints: primary outputs plus flip-flop
	// D pins); an explicit set models restricted observability, e.g. the
	// output-only observation of an on-line functional test. Untestable
	// verdicts are then proofs relative to this set, and GenerateAll's
	// fault dropping grades at the same points so the two never disagree.
	ObsPoints []sim.ObsPoint
	// Classes is the set of collapsed-class representatives GenerateAll
	// targets; nil targets every class of the universe. Every entry must be a
	// representative of the universe's structural collapse, listed once;
	// verdicts still spread to all members of the targeted classes. The
	// order of the list does not matter: GenerateAll searches its classes
	// hardest-first whatever order they arrive in, and only reads the list.
	Classes []fault.FID
	// Replay, when non-nil, is a test set GenerateAll grades against the
	// class list before any search dispatches (see Replay). Campaign
	// providers replay the full-scan baseline's tests on every scenario
	// clone, and each later swept depth replays the tests of the depth
	// before it.
	Replay *Replay
	// Pool optionally gates every worker's per-class search on a
	// campaign-global slot budget (sched.NewPool), capping concurrently
	// searching goroutines across every provider of a campaign no matter
	// how many GenerateAll runs overlap. Nil leaves this run's concurrency
	// bounded only by Workers.
	Pool *sched.Pool
	// Sites optionally expands every targeted fault into a joint multi-site
	// injection (fault.SiteMap.Expand): the stuck value is injected at the
	// fault's own site and at every replica site simultaneously, and the
	// engine's verdict — including Untestable, which stays a sound
	// exhaustion proof — is about that whole injection. This is how a
	// permanent fault is modeled on a time-expanded (unrolled) clone, where
	// the defect is present in every frame rather than only the final one.
	// Nil means classical single-site semantics. GenerateAll's dropping
	// grader expands through the same map, so simulation and search always
	// agree on what machine a verdict describes.
	//
	// GenerateAll additionally spreads class verdicts over the structural
	// collapse, which is sound for frame-replica maps (constraint.Unroll):
	// every collapse rule pairs sites whose replica sets mirror each other
	// — same-gate rules trivially, fanout-free stem/branch merges because
	// the clone's fanout counts already include the replica readers, so the
	// merge only fires where the per-frame copies preserve the
	// single-reader shape — and machine-identical equivalences compose
	// site-wise across frames. Hand-built maps that replicate one class
	// member but not another void that argument; restrict such maps to
	// Engine.GenerateInjection, which spreads nothing.
	Sites *fault.SiteMap
	// Grader optionally supplies a prebuilt PPSFP drop grader for the run,
	// replacing the one GenerateAll otherwise builds. It must have been
	// built (sim.NewGraderSites) over this run's netlist, universe,
	// ObsPoints and Sites — GenerateAll cannot verify the match, and
	// detection claims on differently observed or injected machines do not
	// transfer. GenerateAll uses it only from its coordinator goroutine (a
	// Grader is not safe for concurrent use) and does not re-Instrument it,
	// so a caller can keep one warm grader across sequential runs on an
	// incrementally extended clone — the depth sweep's per-depth runs share
	// one grader via sim.Grader.Extend instead of rebuilding the forward
	// CSR and simulator every depth. Nil builds a fresh grader per run.
	Grader *sim.Grader
	// Annotations optionally supplies precomputed testability annotations
	// for the netlist (Netlist.Annotate). They are read-only during
	// generation, so one Annotate pass can be shared across the engines of
	// a run and across concurrent GenerateAll runs on the same netlist. Nil
	// computes them internally.
	Annotations *netlist.Annotations
	// Progress, when non-nil, receives every class verdict GenerateAll
	// commits — deterministic results, fault-simulation drops, and
	// Aborted-to-Detected upgrades (re-announced as Detected) — in commit
	// order from the coordinator goroutine. Providers use it to stream
	// evidence deltas while generation is still running; it must not block
	// for long and must not call back into the engine.
	Progress func(fid fault.FID, v Verdict)
	// Metrics, when non-nil, receives the run's engine telemetry: per-class
	// verdict counters mirroring Stats ("atpg.classes", "atpg.classes.*",
	// "atpg.patterns"), search-work counters ("atpg.backtracks",
	// "atpg.decisions", "atpg.implications", and "atpg.gate_evals", the
	// gate evaluations those implication passes actually ran),
	// drop-grader traffic, the screen stage's retirements by rule
	// ("atpg.screen.constant" / "atpg.screen.unobservable"), abort
	// attribution ("atpg.abort.limit" / "atpg.abort.cancel") and the
	// per-class search-time histogram ("atpg.search_ns").
	//
	// The drop-grader traffic: "atpg.drop.graded" counts the dispatch
	// checks, each a class checked against at least one search test (at its
	// dispatch, on its result when a test was emitted meanwhile, or at the
	// end of the run when it aborted), plus the live classes each replay
	// word is graded against. "atpg.drop.hits" counts the simulation drops
	// they find, so hits/graded is the hit rate of fault dropping, and
	// "atpg.drop.grade_ns" is the coordinator's wall time grading: the
	// replay, storing each search test, and the checks, each walk to the
	// next class to hand out timed as a whole, the drops it resolves and
	// their Progress calls included. On the grader
	// GenerateAll builds, "sim.grade.words" counts one settled word per
	// replay word and per stored search test, and "sim.grade.fault_evals"
	// the cone evaluations: per replay word, one per activated live class,
	// and per check, one per word with an activated lane.
	//
	// Handles resolve once per run; every hot-path record is a single
	// atomic add, so the registry is cheap enough to leave always on. Nil
	// disables all recording at the cost of one branch per record.
	Metrics *obs.Registry
}

// Replay is a test set that GenerateAll grades against its class list before
// the screen stage and any search, 64 rows per word, through the run's
// drop grader. A class a word detects resolves Detected as a
// simulation drop, and the rows of every word that detected a class join
// the emitted test set ahead of the searches' tests; words that detect
// nothing are left out. Grading stops once no class is left.
//
// Any test set is sound here, whatever netlist it was generated for: a
// definite good-versus-faulty difference that the run's own grader sees is
// a detection at the run's observation points and under its site map, and
// ternary simulation is monotone, so an X in a row only costs hits. The
// emitted set is fully specified only when the rows are.
type Replay struct {
	// Patterns and States are the rows, index-aligned and sized exactly to
	// the run's netlist: one entry per primary input and per flip-flop.
	Patterns []sim.Pattern
	States   []sim.Pattern
	// Hit, when non-nil, observes every word that detected a class: rows
	// [lo, hi) and the class representatives they detected. It runs on the
	// caller's goroutine before any worker starts; the set is reused for the
	// next word, so Hit must not keep it.
	Hit func(lo, hi int, detected *fault.Set)
}

// DefaultBacktrackLimit is the per-fault decision-flip budget when
// Options.BacktrackLimit is zero. Combinational circuits of a few thousand
// gates essentially never need this many flips to resolve a fault.
const DefaultBacktrackLimit = 1 << 14

// AbortReason says why a search ended with Verdict Aborted.
type AbortReason uint8

// Abort reasons.
const (
	// AbortNone: the verdict is not Aborted.
	AbortNone AbortReason = iota
	// AbortLimit: the backtrack limit was exhausted — the classic budget
	// abort, the signal for tuning Options.BacktrackLimit.
	AbortLimit
	// AbortCancel: the search was interrupted by cancellation (the shared
	// cancel flag, i.e. a cancelled GenerateAll context).
	AbortCancel
)

// String implements fmt.Stringer.
func (a AbortReason) String() string {
	switch a {
	case AbortNone:
		return "none"
	case AbortLimit:
		return "backtrack-limit"
	case AbortCancel:
		return "cancelled"
	}
	return fmt.Sprintf("AbortReason(%d)", uint8(a))
}

// Result is the outcome of targeting one fault.
type Result struct {
	Verdict Verdict
	// Abort distinguishes why an Aborted search gave up; AbortNone for
	// Detected and Untestable results.
	Abort AbortReason
	// Pattern holds the primary-input assignment (indexed like
	// Netlist.PrimaryInputs) when Verdict == Detected. It stays partial:
	// inputs the search did not assign are X, and any completion of them
	// detects the fault too. GenerateAll completes it before grading and
	// emitting it (Outcome.Patterns); Generate never does.
	Pattern sim.Pattern
	// State holds the flip-flop pseudo-input assignment (indexed like
	// Netlist.FlipFlops) when Verdict == Detected; partial like Pattern.
	State sim.Pattern
	// Backtracks counts the decision flips the search used.
	Backtracks int
	// Decisions counts the decision-stack pushes (initial assignments; flips
	// are counted by Backtracks).
	Decisions int
	// Implications counts implication passes: one per decision step, plus
	// the search's initial pass. Passes are event-driven, so a pass costs
	// what the step changed; GateEvals measures that cost.
	Implications int
	// GateEvals counts the gate evaluations the search ran: one per
	// combinational gate an implication pass re-evaluated. It is the
	// search's unit of raw simulation work.
	GateEvals int
	// Elapsed is the wall-clock time of this search.
	Elapsed time.Duration
}

// decision is one entry of the PODEM decision stack.
type decision struct {
	idx     int32 // index into Engine.assignable
	val     logic.V
	flipped bool
}

// Engine is a single-fault PODEM test generator. It is not safe for
// concurrent use; GenerateAll builds one per worker.
type Engine struct {
	n    *netlist.Netlist
	ann  *netlist.Annotations
	opts Options
	// cancel, when non-nil, aborts in-flight searches: Generate polls it
	// once per decision step and returns Aborted as soon as it is set.
	// GenerateAll shares one flag across its worker fleet so a cancelled
	// context interrupts even a search deep inside the backtrack budget.
	cancel *atomic.Bool

	// assignable lists the controllable input nets: primary inputs in
	// PrimaryInputs order, then flip-flop outputs in FlipFlops order.
	assignable []netlist.NetID
	numPI      int
	// deadIn[i] marks assignables whose net has no fanout (e.g. a primary
	// input whose readers a constraint transform rewired to a tie): they
	// cannot influence anything, so decisions on them only bloat the tree.
	// They stay in assignable to keep Pattern/State index alignment.
	deadIn []bool
	// pIdx[net] is the assignable index of a net, -1 otherwise.
	pIdx []int32
	// obsMask[g] has bit p set when input pin p of gate g is an
	// observation point — the X-path pruning DFS tests pins in its inner
	// loop, so the check must not hash. Pins >= 64 (pathologically wide
	// gates) fall back to obsPin.
	obsMask []uint64
	obsPin  map[netlist.Pin]bool

	// Per-Generate search state.
	val     []logic.D5 // per net
	assigns []logic.V  // per assignable
	// The joint injection under search. All sites share one stuck value
	// (sa); siteNets/siteVals track, per site, the net it sits on and its
	// implied five-valued value with the injection applied.
	inj      fault.Injection
	sa       logic.V
	siteNets []netlist.NetID
	siteVals []logic.D5
	// Injection lookup tables, maintained by setInjection so the per-pin
	// hot path (pinVal) stays a mask test however many sites the injection
	// has. injPinWide covers pathological pins >= 64, like obsPin.
	injOut     []bool   // per gate: output pin stuck
	injPinMask []uint64 // per gate: stuck input pins < 64
	injPinWide map[netlist.Pin]bool
	stack      []decision
	backtracks int
	gateEvals  int
	// changed lists the assignables whose value the current decision step
	// changed (pushed, flipped or popped): the seeds of the next
	// event-driven implication pass.
	changed []int32

	// Relevance cone of the current injection (see cone.go). cone holds
	// one flag byte per gate; coneGates lists N's combinational gates and
	// coneF F's, both in levelized order; coneSrc lists N's source gates;
	// coneObs lists the observation points a fault effect can reach.
	cone      []uint8
	coneGates []netlist.GateID
	coneF     []netlist.GateID
	coneSrc   []netlist.GateID
	coneObs   []sim.ObsPoint
	coneWork  []netlist.GateID   // cone-walk worklist
	implQ     [][]netlist.GateID // event-driven implication queues by level

	dfront []netlist.GateID
	roots  []netlist.NetID // nextObjectives scratch
	// X-path DFS scratch: visited is epoch-stamped (valid when equal to
	// visitEp) so each call costs O(touched), not O(nets) clearing, and the
	// DFS stack is an engine-owned arena instead of a per-call allocation.
	visited []uint32
	visitEp uint32
	xstack  []netlist.NetID
	objs    []objective // nextObjectives scratch
	demand  []objDemand
	// netDemand holds the multiple-backtrace demand per net, valid where
	// visited carries the current backtrace's epoch.
	netDemand []objDemand
	buckets   [][]netlist.NetID // multiple-backtrace worklist by level
}

// New builds an engine for the netlist. It fails only if the netlist does not
// levelize.
func New(n *netlist.Netlist, opts Options) (*Engine, error) {
	ann, err := n.Annotate()
	if err != nil {
		return nil, err
	}
	return NewWithAnnotations(n, ann, opts), nil
}

// NewWithAnnotations builds an engine on precomputed testability annotations.
// The annotations are read-only during search, so a fleet of engines (one per
// worker) can share one Annotate pass.
func NewWithAnnotations(n *netlist.Netlist, ann *netlist.Annotations, opts Options) *Engine {
	if opts.BacktrackLimit <= 0 {
		opts.BacktrackLimit = DefaultBacktrackLimit
	}
	obs := opts.ObsPoints
	if obs == nil {
		obs = sim.CombObsPoints(n)
	}
	e := &Engine{
		n:          n,
		ann:        ann,
		opts:       opts,
		pIdx:       make([]int32, len(n.Nets)),
		obsMask:    make([]uint64, len(n.Gates)),
		obsPin:     make(map[netlist.Pin]bool),
		val:        make([]logic.D5, len(n.Nets)),
		injOut:     make([]bool, len(n.Gates)),
		injPinMask: make([]uint64, len(n.Gates)),
		visited:    make([]uint32, len(n.Nets)),
		netDemand:  make([]objDemand, len(n.Nets)),
		cone:       make([]uint8, len(n.Gates)),
	}
	for _, p := range obs {
		if p.Pin < 64 {
			e.obsMask[p.Gate] |= 1 << uint(p.Pin)
		} else {
			e.obsPin[netlist.Pin{Gate: p.Gate, In: p.Pin}] = true
		}
	}
	for i := range e.pIdx {
		e.pIdx[i] = -1
	}
	for _, g := range n.PrimaryInputs() {
		e.addAssignable(n.Gates[g].Out)
	}
	e.numPI = len(e.assignable)
	for _, g := range n.FlipFlops() {
		e.addAssignable(n.Gates[g].Out)
	}
	e.deadIn = make([]bool, len(e.assignable))
	for i, net := range e.assignable {
		e.deadIn[i] = len(n.Nets[net].Fanout) == 0
	}
	e.assigns = make([]logic.V, len(e.assignable))
	e.demand = make([]objDemand, len(e.assignable))
	maxLvl := int32(0)
	for _, l := range ann.Level {
		if l > maxLvl {
			maxLvl = l
		}
	}
	e.buckets = make([][]netlist.NetID, maxLvl+1)
	e.implQ = make([][]netlist.GateID, maxLvl+1)
	return e
}

func (e *Engine) addAssignable(net netlist.NetID) {
	e.pIdx[net] = int32(len(e.assignable))
	e.assignable = append(e.assignable, net)
}

// setInjection installs the joint injection for the next search, clearing
// the previous one's lookup entries first (O(sites), not O(gates)).
func (e *Engine) setInjection(inj fault.Injection) {
	for _, s := range e.inj.Sites {
		switch {
		case s.Pin == fault.OutputPin:
			e.injOut[s.Gate] = false
		case s.Pin < 64:
			e.injPinMask[s.Gate] &^= 1 << uint(s.Pin)
		default:
			delete(e.injPinWide, netlist.Pin{Gate: s.Gate, In: s.Pin})
		}
	}
	e.inj = inj
	e.sa = inj.SA
	e.siteNets = e.siteNets[:0]
	for _, s := range inj.Sites {
		g := &e.n.Gates[s.Gate]
		switch {
		case s.Pin == fault.OutputPin:
			e.injOut[s.Gate] = true
			e.siteNets = append(e.siteNets, g.Out)
		case s.Pin < 64:
			e.injPinMask[s.Gate] |= 1 << uint(s.Pin)
			e.siteNets = append(e.siteNets, g.Ins[s.Pin])
		default:
			if e.injPinWide == nil {
				e.injPinWide = map[netlist.Pin]bool{}
			}
			e.injPinWide[netlist.Pin{Gate: s.Gate, In: s.Pin}] = true
			e.siteNets = append(e.siteNets, g.Ins[s.Pin])
		}
	}
	if cap(e.siteVals) < len(inj.Sites) {
		e.siteVals = make([]logic.D5, len(inj.Sites))
	}
	e.siteVals = e.siteVals[:len(inj.Sites)]
}
