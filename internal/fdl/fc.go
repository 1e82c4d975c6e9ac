package fdl

// Frame-control (FC) byte layout of DIN 19245-1. Bit 6 distinguishes
// request (1) from response (0) frames; in request frames bits 5/4 carry
// the alternation/validity pair FCB/FCV and bits 3..0 the function code;
// in response frames bits 5/4 encode the station type and bits 3..0 the
// response function code.
const (
	// FCRequest marks a request (action) frame.
	FCRequest byte = 0x40
	// FCFCB is the frame-count bit, alternated per message cycle to
	// detect lost acknowledgements.
	FCFCB byte = 0x20
	// FCFCV marks the frame-count bit as valid.
	FCFCV byte = 0x10
)

// Request function codes (bits 3..0 with FCRequest set).
const (
	// FnFDLStatus requests the FDL status of a station (used in ring
	// maintenance / GAP polling).
	FnFDLStatus byte = 0x09
	// FnSRDlow is Send and Request Data, low priority.
	FnSRDlow byte = 0x0C
	// FnSRDhigh is Send and Request Data, high priority.
	FnSRDhigh byte = 0x0D
)

// Response function codes (bits 3..0 with FCRequest clear).
const (
	// RspOK is a positive acknowledgement.
	RspOK byte = 0x00
	// RspDL is a response carrying data, low priority.
	RspDL byte = 0x08
	// RspDH is a response carrying data, high priority.
	RspDH byte = 0x0A
)

// Station-type bits (5..4) of response frames.
const (
	// StSlave identifies a passive (slave) station.
	StSlave byte = 0x00
)

// ReqFC assembles a request FC byte from a function code and the
// FCB/FCV pair.
func ReqFC(fn byte, fcb, fcv bool) byte {
	fc := FCRequest | (fn & 0x0F)
	if fcb {
		fc |= FCFCB
	}
	if fcv {
		fc |= FCFCV
	}
	return fc
}

// RspFC assembles a response FC byte from a response code and station
// type bits.
func RspFC(rsp, stationType byte) byte {
	return (stationType & 0x30) | (rsp & 0x0F)
}
