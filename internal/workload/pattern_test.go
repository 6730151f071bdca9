package workload

import (
	"bytes"
	"testing"
)

// TestPatternChunksReproducePattern checks the streamed form of the bulk
// pattern against the materialised one across several period wraps, with
// offers of every awkward size a send buffer can ask for.
func TestPatternChunksReproducePattern(t *testing.T) {
	const n = 3*patternPeriod + 12345
	want := PatternBytes(n)
	sizes := []int{1, 535, 32768, 65535, patternPeriod - 1, patternPeriod, n}
	var got []byte
	for i := 0; len(got) < n; i++ {
		space := sizes[i%len(sizes)]
		chunk := PatternChunk(len(got), n-len(got))
		if want := min(n-len(got), patternPeriod); len(chunk) != want {
			t.Fatalf("at %d: offered %d bytes, want %d", len(got), len(chunk), want)
		}
		got = append(got, chunk[:min(space, len(chunk))]...)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("streamed pattern differs from PatternBytes")
	}
}

func TestPatternBytesDeterministic(t *testing.T) {
	a, b := PatternBytes(1000), PatternBytes(1000)
	if !bytes.Equal(a, b) {
		t.Fatal("pattern not deterministic")
	}
}
