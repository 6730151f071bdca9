package packet

import "testing"

func BenchmarkChecksum1500(b *testing.B) {
	data := make([]byte, 1500)
	for i := range data {
		data[i] = byte(i)
	}
	b.SetBytes(1500)
	for i := 0; i < b.N; i++ {
		Checksum(data)
	}
}

func BenchmarkChecksum40(b *testing.B) {
	data := make([]byte, 40)
	b.SetBytes(40)
	for i := 0; i < b.N; i++ {
		Checksum(data)
	}
}

func BenchmarkBufferBuild(b *testing.B) {
	payload := make([]byte, 536)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf := newBuffer(40, payload)
		copy(buf.Prepend(20), payload[:20])
		copy(buf.Prepend(20), payload[:20])
		_ = buf.Bytes()
	}
}
