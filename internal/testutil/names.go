package testutil

import "olfui/internal/netlist"

// DuplicateNames lists every name that more than one gate, or more than one
// net, of n carries, as "gate NAME" or "net NAME" in first-seen order. A
// netlist keeps no name index, so nothing but a check like this one notices
// two gates or nets sharing a name, which makes NetByName and GateByName
// report the name as not found.
func DuplicateNames(n *netlist.Netlist) []string {
	gates := make([]string, len(n.Gates))
	for i := range n.Gates {
		gates[i] = n.Gates[i].Name
	}
	nets := make([]string, len(n.Nets))
	for i := range n.Nets {
		nets[i] = n.Nets[i].Name
	}
	return append(repeated("gate ", gates), repeated("net ", nets)...)
}

// repeated returns kind+name for every name that occurs more than once.
func repeated(kind string, names []string) []string {
	var out []string
	seen := make(map[string]int, len(names))
	for _, name := range names {
		if seen[name]++; seen[name] == 2 {
			out = append(out, kind+name)
		}
	}
	return out
}
