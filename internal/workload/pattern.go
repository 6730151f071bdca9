package workload

// PatternBytes produces position-dependent test data: the payload every
// bulk transfer carries, so a receiver can tell a misplaced byte.
func PatternBytes(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i*7 + i>>9)
	}
	return p
}

// The pattern's byte at i depends only on i mod 2^17, so a bulk sender
// streams from one read-only table shared by every transfer in the
// process instead of materialising its whole transfer. The table holds
// two periods so that a chunk of up to one period is contiguous wherever
// it starts: a Write is then offered exactly what a fully materialised
// pattern would have offered it, for any send buffer up to 128 KiB.
const patternPeriod = 1 << 17

var patternTable = PatternBytes(2 * patternPeriod)

// PatternChunk returns the pattern from offset off on: up to n bytes,
// and no more than one period.
func PatternChunk(off, n int) []byte {
	at := off % patternPeriod
	return patternTable[at : at+min(n, patternPeriod)]
}
