package dp

import (
	"fmt"

	"olfui/internal/netlist"
)

// RegisterBus builds a plain register: one DFF per bit.
func RegisterBus(n *netlist.Netlist, name string, d Bus) Bus {
	q := make(Bus, len(d))
	for i := range d {
		q[i] = n.DFF(fmt.Sprintf("%s[%d]", name, i), d[i])
	}
	return q
}

// RegisterEn builds an enabled register with reset: when en=1 the register
// captures d, otherwise it recirculates. Returns the Q bus.
func RegisterEn(n *netlist.Netlist, name string, d Bus, en, rstn netlist.NetID) Bus {
	q := make(Bus, len(d))
	for i := range d {
		qName := fmt.Sprintf("%s[%d]", name, i)
		qNet := n.NewNet(qName + ".q")
		m := n.Mux2(qName+".en", qNet, d[i], en)
		n.AddGateOut(netlist.KDFFR, qName, qNet, m, rstn)
		q[i] = qNet
	}
	return q
}
