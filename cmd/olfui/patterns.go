package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strings"

	"olfui/internal/flow"
	"olfui/internal/logic"
	"olfui/internal/netlist"
	"olfui/internal/sim"
)

// loadPatternSets reads a mission stimulus file into pattern sets for the
// campaign's PatternProvider; parsePatternSets gives the format.
func loadPatternSets(n *netlist.Netlist, path string) ([]flow.PatternSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return parsePatternSets(n, path, f)
}

// parsePatternSets parses a mission stimulus from r, naming it name in
// errors. The format is line-oriented:
//
//	# comment (also after a row)
//	seq <name>     starts a new sequence
//	01X10...       one cycle: one character per primary input, in netlist
//	               input order (0, 1, or X/x for don't-drive)
//
// A header is a line whose first whitespace-separated field is "seq"; the
// rest of the line, trimmed, is the sequence name. Rows belong to the most
// recent "seq"; a file may hold any number of sequences. Stimuli are graded
// against the fault universe with output-only observation, so they must
// respect the design's mission constraints (tied test pins held, one-hot
// fields legal): a stimulus that detects a fault some scenario proved
// functionally untestable fails the campaign with a conflict — by design,
// since it means either the scenario model or the stimulus is wrong about
// mission mode.
func parsePatternSets(n *netlist.Netlist, name string, r io.Reader) ([]flow.PatternSet, error) {
	var inputs []netlist.NetID
	for _, g := range n.PrimaryInputs() {
		inputs = append(inputs, n.Gates[g].Out)
	}

	var sets []flow.PatternSet
	seen := map[string]bool{}
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if strings.Fields(line)[0] == "seq" {
			seq := strings.TrimSpace(line[len("seq"):])
			if seq == "" {
				return nil, fmt.Errorf("%s:%d: seq without a name", name, lineNo)
			}
			if seen[seq] {
				return nil, fmt.Errorf("%s:%d: duplicate sequence %q", name, lineNo, seq)
			}
			seen[seq] = true
			sets = append(sets, flow.PatternSet{
				Name: seq,
				Stim: sim.Stimulus{Inputs: inputs},
			})
			continue
		}
		if len(sets) == 0 {
			return nil, fmt.Errorf("%s:%d: cycle row before any \"seq\" header", name, lineNo)
		}
		if len(line) != len(inputs) {
			return nil, fmt.Errorf("%s:%d: row has %d symbols, circuit has %d primary inputs",
				name, lineNo, len(line), len(inputs))
		}
		row := make([]logic.V, len(inputs))
		for i, ch := range line {
			switch ch {
			case '0':
				row[i] = logic.Zero
			case '1':
				row[i] = logic.One
			case 'X', 'x':
				row[i] = logic.X
			default:
				return nil, fmt.Errorf("%s:%d: bad symbol %q (want 0, 1 or X)", name, lineNo, ch)
			}
		}
		cur := &sets[len(sets)-1]
		cur.Stim.Cycles = append(cur.Stim.Cycles, row)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s:%d: %w", name, lineNo+1, err)
	}
	if len(sets) == 0 {
		return nil, fmt.Errorf("%s: no sequences found", name)
	}
	for _, set := range sets {
		if len(set.Stim.Cycles) == 0 {
			return nil, fmt.Errorf("%s: sequence %q has no cycles", name, set.Name)
		}
	}
	return sets, nil
}
