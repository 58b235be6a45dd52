package addr

// Octets returns the four dotted-quad bytes. Only TestOctets reads them.
func (ip IP) Octets() [4]byte {
	return [4]byte{byte(ip >> 24), byte(ip >> 16), byte(ip >> 8), byte(ip)}
}
