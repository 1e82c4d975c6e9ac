// Package fdl implements the PROFIBUS Fieldbus Data Link layer framing
// of DIN 19245 part 1 (later EN 50170 volume 2): the four start-
// delimiter frame formats plus the short acknowledgement, their
// lengths on the wire, and the transmission timing model (11-bit UART
// characters, station delays, slot time, retries) from which the
// analyses obtain message-cycle lengths C_hi.
package fdl

import "fmt"

// CharBits is the UART character length on the wire: start bit + 8 data
// bits + even parity + stop bit.
const CharBits = 11

// MaxSD2Data is the largest data-unit length of a variable frame: the
// length byte LE counts DA+SA+FC+DATA and is at most 249.
const MaxSD2Data = 246

// Kind enumerates the frame formats.
type Kind int

// Frame kinds.
const (
	// KindSD1 is a fixed-length frame without data (e.g. FDL status
	// request, short acknowledgements with status).
	KindSD1 Kind = iota
	// KindSD2 is a variable-length data frame.
	KindSD2
	// KindSD3 is a fixed-length frame with exactly 8 data bytes.
	KindSD3
	// KindToken is the SD4 token frame.
	KindToken
	// KindShortAck is the single-byte E5h acknowledgement.
	KindShortAck
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindSD1:
		return "SD1"
	case KindSD2:
		return "SD2"
	case KindSD3:
		return "SD3"
	case KindToken:
		return "SD4/token"
	case KindShortAck:
		return "SC/ack"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Frame is one FDL frame as the timing model sees it: its format and
// the length of its data unit. A frame's duration depends on its
// length alone, so addresses and the frame-control byte are not kept.
type Frame struct {
	Kind Kind
	// Data is the data-unit length in bytes: 0..246 for SD2; SD3
	// always carries 8 and the other kinds none, whatever it says.
	Data int
}

// Chars returns the frame's length in UART characters on the wire.
func (f Frame) Chars() int {
	switch f.Kind {
	case KindSD1:
		return 6
	case KindSD2:
		return 9 + f.Data
	case KindSD3:
		return 14
	case KindToken:
		return 3
	case KindShortAck:
		return 1
	default:
		return 0
	}
}

// Bits returns the frame's transmission length in bit times.
func (f Frame) Bits() int64 { return int64(f.Chars()) * CharBits }
