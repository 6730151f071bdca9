package ipv4

import "encoding/binary"

// The two low-order TOS bits the 1981 header left unused ("reserved for
// future use") are the hook RFC 3168 later standardized as the ECN
// field. The paper's resource-management discussion concedes the
// datagram architecture gave gateways no good way to push back on
// sources — source quench was "not a very good" answer — and these two
// bits are the minimal fix the architecture always had room for: a
// gateway can mark congestion *in the datagram it would otherwise
// drop*, and let the transport's own feedback loop carry the signal
// back to the sender.
const (
	// ECNMask selects the ECN field from the TOS octet.
	ECNMask uint8 = 0x03
	// NotECT marks a transport that does not understand marking; the
	// only congestion signal it can receive is a drop.
	NotECT uint8 = 0x00
	// ECT1 and ECT0 declare an ECN-capable transport (RFC 3168 gives
	// them equal meaning; darpanet emits ECT0).
	ECT1 uint8 = 0x01
	ECT0 uint8 = 0x02
	// CE is the gateway's congestion-experienced mark.
	CE uint8 = 0x03
)

// ECN extracts the ECN field from a TOS octet.
func ECN(tos uint8) uint8 { return tos & ECNMask }

// SetCE rewrites the raw wire header in place to mark congestion
// experienced, patching the header checksum incrementally (RFC 1624
// eq. 3) exactly as DecrementTTL does for the TTL — the gateway's
// zero-copy forwarding path never re-sums a header. It reports whether
// the datagram was markable: false means the transport never declared
// ECN capability and the caller must fall back to dropping.
func SetCE(raw []byte) bool {
	if len(raw) < HeaderLen {
		return false
	}
	ecn := raw[1] & ECNMask
	if ecn == NotECT {
		return false
	}
	if ecn == CE {
		return true // already marked upstream
	}
	old := uint32(binary.BigEndian.Uint16(raw[0:]))
	raw[1] = raw[1]&^ECNMask | CE
	new := uint32(binary.BigEndian.Uint16(raw[0:]))
	hc := uint32(binary.BigEndian.Uint16(raw[10:]))
	sum := (^hc & 0xffff) + (^old & 0xffff) + new
	sum = (sum & 0xffff) + (sum >> 16)
	sum = (sum & 0xffff) + (sum >> 16)
	binary.BigEndian.PutUint16(raw[10:], uint16(^sum&0xffff))
	return true
}
