package openflow

import (
	"encoding/binary"
	"fmt"
	"net"
	"strings"
)

// MatchLen is the encoded size of an ofp_match structure.
const MatchLen = 40

// Wildcard flag bits (ofp_flow_wildcards). A set bit means the
// corresponding match field is ignored.
const (
	WildcardInPort  uint32 = 1 << 0
	WildcardDlVlan  uint32 = 1 << 1
	WildcardDlSrc   uint32 = 1 << 2
	WildcardDlDst   uint32 = 1 << 3
	WildcardDlType  uint32 = 1 << 4
	WildcardNwProto uint32 = 1 << 5
	WildcardTpSrc   uint32 = 1 << 6
	WildcardTpDst   uint32 = 1 << 7

	// Source/destination IP wildcards are 6-bit CIDR-style mask widths:
	// the value is the number of low-order bits of the address to ignore,
	// values >= 32 meaning "wildcard the whole address".
	wildcardNwSrcShift        = 8
	wildcardNwSrcMask  uint32 = 0x3f << wildcardNwSrcShift
	wildcardNwDstShift        = 14
	wildcardNwDstMask  uint32 = 0x3f << wildcardNwDstShift

	WildcardDlVlanPcp uint32 = 1 << 20
	WildcardNwTos     uint32 = 1 << 21

	// WildcardAll has every wildcard bit set: the match accepts every packet.
	WildcardAll uint32 = ((1 << 22) - 1)
)

// EthAddr is a 48-bit Ethernet MAC address.
type EthAddr [6]byte

func (a EthAddr) String() string { return net.HardwareAddr(a[:]).String() }

// IsBroadcast reports whether a is ff:ff:ff:ff:ff:ff.
func (a EthAddr) IsBroadcast() bool {
	return a == EthAddr{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}
}

// IsMulticast reports whether the group bit of a is set.
func (a EthAddr) IsMulticast() bool { return a[0]&0x01 != 0 }

// Match is the OpenFlow 1.0 twelve-tuple flow match (ofp_match). The
// zero value matches nothing in particular; use MatchAll for the
// match-everything wildcard.
type Match struct {
	Wildcards uint32  // bitmap of ignored fields
	InPort    uint16  // switch input port
	DlSrc     EthAddr // Ethernet source
	DlDst     EthAddr // Ethernet destination
	DlVlan    uint16  // input VLAN id
	DlVlanPcp uint8   // input VLAN priority
	DlType    uint16  // Ethernet frame type
	NwTos     uint8   // IP ToS (DSCP field, 6 bits)
	NwProto   uint8   // IP protocol, or lower 8 bits of ARP opcode
	NwSrc     uint32  // IPv4 source
	NwDst     uint32  // IPv4 destination
	TpSrc     uint16  // TCP/UDP source port
	TpDst     uint16  // TCP/UDP destination port
}

// MatchAll returns a match whose wildcards accept every packet.
func MatchAll() Match { return Match{Wildcards: WildcardAll} }

// NwSrcMaskBits returns the number of wildcarded low-order bits of the
// source address, clamped to 32.
func (m *Match) NwSrcMaskBits() uint {
	n := uint((m.Wildcards & wildcardNwSrcMask) >> wildcardNwSrcShift)
	if n > 32 {
		n = 32
	}
	return n
}

// NwDstMaskBits returns the number of wildcarded low-order bits of the
// destination address, clamped to 32.
func (m *Match) NwDstMaskBits() uint {
	n := uint((m.Wildcards & wildcardNwDstMask) >> wildcardNwDstShift)
	if n > 32 {
		n = 32
	}
	return n
}

// SetNwSrcMaskBits sets the number of wildcarded low-order source
// address bits (0 = exact match, >=32 = fully wildcarded).
func (m *Match) SetNwSrcMaskBits(bits uint) {
	if bits > 63 {
		bits = 63
	}
	m.Wildcards = (m.Wildcards &^ wildcardNwSrcMask) | (uint32(bits) << wildcardNwSrcShift)
}

// SetNwDstMaskBits sets the number of wildcarded low-order destination
// address bits (0 = exact match, >=32 = fully wildcarded).
func (m *Match) SetNwDstMaskBits(bits uint) {
	if bits > 63 {
		bits = 63
	}
	m.Wildcards = (m.Wildcards &^ wildcardNwDstMask) | (uint32(bits) << wildcardNwDstShift)
}

func maskFromBits(bits uint) uint32 {
	if bits >= 32 {
		return 0
	}
	return ^uint32(0) << bits
}

// Normalize canonicalizes m so that wildcarded fields are zeroed and the
// CIDR mask widths are clamped to 32. Two normalized matches are
// semantically identical iff they are ==, which lets flow tables use
// Match values as map keys for "strict" rule identity. Wildcard bits
// outside WildcardAll carry no meaning and are cleared, so a match that
// constrains every field is exact (see ExactFields) exactly when
// Subsumes treats it as constraining every field.
func (m Match) Normalize() Match {
	m.Wildcards &= WildcardAll
	if m.Wildcards&WildcardInPort != 0 {
		m.InPort = 0
	}
	if m.Wildcards&WildcardDlSrc != 0 {
		m.DlSrc = EthAddr{}
	}
	if m.Wildcards&WildcardDlDst != 0 {
		m.DlDst = EthAddr{}
	}
	if m.Wildcards&WildcardDlVlan != 0 {
		m.DlVlan = 0
	}
	if m.Wildcards&WildcardDlVlanPcp != 0 {
		m.DlVlanPcp = 0
	}
	if m.Wildcards&WildcardDlType != 0 {
		m.DlType = 0
	}
	if m.Wildcards&WildcardNwTos != 0 {
		m.NwTos = 0
	}
	if m.Wildcards&WildcardNwProto != 0 {
		m.NwProto = 0
	}
	if m.Wildcards&WildcardTpSrc != 0 {
		m.TpSrc = 0
	}
	if m.Wildcards&WildcardTpDst != 0 {
		m.TpDst = 0
	}
	srcBits := m.NwSrcMaskBits()
	dstBits := m.NwDstMaskBits()
	m.SetNwSrcMaskBits(srcBits)
	m.SetNwDstMaskBits(dstBits)
	m.NwSrc &= maskFromBits(srcBits)
	m.NwDst &= maskFromBits(dstBits)
	return m
}

// PacketFields is the subset of packet header fields a Match is tested
// against; the network simulator's packets expose one of these.
type PacketFields struct {
	InPort    uint16
	DlSrc     EthAddr
	DlDst     EthAddr
	DlVlan    uint16
	DlVlanPcp uint8
	DlType    uint16
	NwTos     uint8
	NwProto   uint8
	NwSrc     uint32
	NwDst     uint32
	TpSrc     uint16
	TpDst     uint16
}

// Matches reports whether the packet fields p satisfy match m.
func (m *Match) Matches(p PacketFields) bool {
	w := m.Wildcards
	switch {
	case w&WildcardInPort == 0 && m.InPort != p.InPort:
		return false
	case w&WildcardDlSrc == 0 && m.DlSrc != p.DlSrc:
		return false
	case w&WildcardDlDst == 0 && m.DlDst != p.DlDst:
		return false
	case w&WildcardDlVlan == 0 && m.DlVlan != p.DlVlan:
		return false
	case w&WildcardDlVlanPcp == 0 && m.DlVlanPcp != p.DlVlanPcp:
		return false
	case w&WildcardDlType == 0 && m.DlType != p.DlType:
		return false
	case w&WildcardNwTos == 0 && m.NwTos != p.NwTos:
		return false
	case w&WildcardNwProto == 0 && m.NwProto != p.NwProto:
		return false
	case w&WildcardTpSrc == 0 && m.TpSrc != p.TpSrc:
		return false
	case w&WildcardTpDst == 0 && m.TpDst != p.TpDst:
		return false
	}
	if mask := maskFromBits(m.NwSrcMaskBits()); m.NwSrc&mask != p.NwSrc&mask {
		return false
	}
	if mask := maskFromBits(m.NwDstMaskBits()); m.NwDst&mask != p.NwDst&mask {
		return false
	}
	return true
}

// Subsumes reports whether every packet matched by other is also matched
// by m (m is at least as general as other). Used by flow tables to
// implement non-strict FlowMod delete/modify semantics.
func (m *Match) Subsumes(other *Match) bool {
	type field struct {
		bit      uint32
		eq       bool
		otherHas bool
	}
	checks := []field{
		{WildcardInPort, m.InPort == other.InPort, other.Wildcards&WildcardInPort == 0},
		{WildcardDlSrc, m.DlSrc == other.DlSrc, other.Wildcards&WildcardDlSrc == 0},
		{WildcardDlDst, m.DlDst == other.DlDst, other.Wildcards&WildcardDlDst == 0},
		{WildcardDlVlan, m.DlVlan == other.DlVlan, other.Wildcards&WildcardDlVlan == 0},
		{WildcardDlVlanPcp, m.DlVlanPcp == other.DlVlanPcp, other.Wildcards&WildcardDlVlanPcp == 0},
		{WildcardDlType, m.DlType == other.DlType, other.Wildcards&WildcardDlType == 0},
		{WildcardNwTos, m.NwTos == other.NwTos, other.Wildcards&WildcardNwTos == 0},
		{WildcardNwProto, m.NwProto == other.NwProto, other.Wildcards&WildcardNwProto == 0},
		{WildcardTpSrc, m.TpSrc == other.TpSrc, other.Wildcards&WildcardTpSrc == 0},
		{WildcardTpDst, m.TpDst == other.TpDst, other.Wildcards&WildcardTpDst == 0},
	}
	for _, c := range checks {
		if m.Wildcards&c.bit != 0 {
			continue // m ignores this field: anything in other is fine
		}
		// m constrains the field, so other must constrain it identically.
		if !c.otherHas || !c.eq {
			return false
		}
	}
	// CIDR fields: m's mask must be at least as coarse, and the
	// constrained prefixes must agree under m's mask.
	mSrc, oSrc := m.NwSrcMaskBits(), other.NwSrcMaskBits()
	if mSrc < oSrc {
		return false
	}
	if mask := maskFromBits(mSrc); m.NwSrc&mask != other.NwSrc&mask {
		return false
	}
	mDst, oDst := m.NwDstMaskBits(), other.NwDstMaskBits()
	if mDst < oDst {
		return false
	}
	if mask := maskFromBits(mDst); m.NwDst&mask != other.NwDst&mask {
		return false
	}
	return true
}

func (m *Match) serializeTo(b []byte) {
	binary.BigEndian.PutUint32(b[0:4], m.Wildcards)
	binary.BigEndian.PutUint16(b[4:6], m.InPort)
	copy(b[6:12], m.DlSrc[:])
	copy(b[12:18], m.DlDst[:])
	binary.BigEndian.PutUint16(b[18:20], m.DlVlan)
	b[20] = m.DlVlanPcp
	b[21] = 0 // pad
	binary.BigEndian.PutUint16(b[22:24], m.DlType)
	b[24] = m.NwTos
	b[25] = m.NwProto
	b[26], b[27] = 0, 0 // pad
	binary.BigEndian.PutUint32(b[28:32], m.NwSrc)
	binary.BigEndian.PutUint32(b[32:36], m.NwDst)
	binary.BigEndian.PutUint16(b[36:38], m.TpSrc)
	binary.BigEndian.PutUint16(b[38:40], m.TpDst)
}

func (m *Match) decodeFrom(b []byte) error {
	if len(b) < MatchLen {
		return ErrTooShort
	}
	m.Wildcards = binary.BigEndian.Uint32(b[0:4])
	m.InPort = binary.BigEndian.Uint16(b[4:6])
	copy(m.DlSrc[:], b[6:12])
	copy(m.DlDst[:], b[12:18])
	m.DlVlan = binary.BigEndian.Uint16(b[18:20])
	m.DlVlanPcp = b[20]
	m.DlType = binary.BigEndian.Uint16(b[22:24])
	m.NwTos = b[24]
	m.NwProto = b[25]
	m.NwSrc = binary.BigEndian.Uint32(b[28:32])
	m.NwDst = binary.BigEndian.Uint32(b[32:36])
	m.TpSrc = binary.BigEndian.Uint16(b[36:38])
	m.TpDst = binary.BigEndian.Uint16(b[38:40])
	return nil
}

// String renders the non-wildcarded fields, e.g.
// "in_port=1,dl_dst=aa:bb:cc:dd:ee:ff".
func (m Match) String() string {
	if m.Wildcards == WildcardAll {
		return "any"
	}
	var parts []string
	add := func(bit uint32, s string) {
		if m.Wildcards&bit == 0 {
			parts = append(parts, s)
		}
	}
	add(WildcardInPort, fmt.Sprintf("in_port=%d", m.InPort))
	add(WildcardDlSrc, "dl_src="+m.DlSrc.String())
	add(WildcardDlDst, "dl_dst="+m.DlDst.String())
	add(WildcardDlVlan, fmt.Sprintf("dl_vlan=%d", m.DlVlan))
	add(WildcardDlVlanPcp, fmt.Sprintf("dl_vlan_pcp=%d", m.DlVlanPcp))
	add(WildcardDlType, fmt.Sprintf("dl_type=0x%04x", m.DlType))
	add(WildcardNwTos, fmt.Sprintf("nw_tos=%d", m.NwTos))
	add(WildcardNwProto, fmt.Sprintf("nw_proto=%d", m.NwProto))
	if bits := m.NwSrcMaskBits(); bits < 32 {
		parts = append(parts, fmt.Sprintf("nw_src=%s/%d", ipString(m.NwSrc), 32-bits))
	}
	if bits := m.NwDstMaskBits(); bits < 32 {
		parts = append(parts, fmt.Sprintf("nw_dst=%s/%d", ipString(m.NwDst), 32-bits))
	}
	add(WildcardTpSrc, fmt.Sprintf("tp_src=%d", m.TpSrc))
	add(WildcardTpDst, fmt.Sprintf("tp_dst=%d", m.TpDst))
	if len(parts) == 0 {
		return "any"
	}
	return strings.Join(parts, ",")
}

func ipString(ip uint32) string {
	return net.IPv4(byte(ip>>24), byte(ip>>16), byte(ip>>8), byte(ip)).String()
}

// IPv4ToUint converts a net.IP to the uint32 representation used in
// matches; non-IPv4 addresses yield zero.
func IPv4ToUint(ip net.IP) uint32 {
	v4 := ip.To4()
	if v4 == nil {
		return 0
	}
	return binary.BigEndian.Uint32(v4)
}
