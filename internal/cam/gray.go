package cam

// GrayEncode returns the binary-reflected Gray code of v.
func GrayEncode(v uint64) uint64 { return v ^ (v >> 1) }

// GrayRow returns the Gray code of v as a width-bit TCAM row.
func GrayRow(v uint64, width int) Row { return RowFromUint(GrayEncode(v), width) }
