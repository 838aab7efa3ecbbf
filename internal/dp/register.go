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

// RegFile is a register file of size words x width bits with one write port
// and a configurable number of combinational read ports.
type RegFile struct {
	Name  string
	Words Bus   // unused; kept for doc symmetry
	Q     []Bus // Q[w] is the stored word w
	reads []Bus
}

// NewRegFile builds the register file:
//
//	write port: wdata (width), waddr (log2 words), wen
//	read ports: raddr[i] -> returned bus i
//
// Register 0 is a real register (not hard-wired zero); the ISA layer decides
// its semantics. All flip-flops reset to 0 via rstn.
func NewRegFile(n *netlist.Netlist, name string, words, width int,
	wdata Bus, waddr Bus, wen, rstn netlist.NetID, raddrs []Bus) *RegFile {
	if 1<<uint(len(waddr)) != words {
		panic(fmt.Sprintf("dp: regfile %q: waddr width %d for %d words", name, len(waddr), words))
	}
	rf := &RegFile{Name: name}
	sel := Decoder(n, name+"_wdec", waddr)
	for w := 0; w < words; w++ {
		en := n.And(fmt.Sprintf("%s_wen%d", name, w), sel[w], wen)
		q := RegisterEn(n, fmt.Sprintf("%s_r%d", name, w), wdata, en, rstn)
		rf.Q = append(rf.Q, q)
	}
	for p, ra := range raddrs {
		rd := MuxTree(n, fmt.Sprintf("%s_rp%d", name, p), rf.Q, ra)
		rf.reads = append(rf.reads, rd)
	}
	return rf
}

// Read returns the read-port bus p.
func (rf *RegFile) Read(p int) Bus { return rf.reads[p] }

// FFGates returns, for each word, the flip-flop gate IDs in bit order. The
// memory-map analysis uses this to tie constant bits of address registers.
func (rf *RegFile) FFGates(n *netlist.Netlist) [][]netlist.GateID {
	out := make([][]netlist.GateID, len(rf.Q))
	for w, q := range rf.Q {
		out[w] = make([]netlist.GateID, len(q))
		for i, net := range q {
			out[w][i] = n.Net(net).Driver
		}
	}
	return out
}
