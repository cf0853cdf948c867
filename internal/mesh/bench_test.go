package mesh

import (
	"testing"

	"repro/internal/sim"
)

// BenchmarkSend measures the analytic cost of routing and scheduling one
// message across the mesh.
func BenchmarkSend(b *testing.B) {
	k := sim.NewKernel()
	m := New(k, Paragon(8, 2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Send(i%8, 8+(i%8), 64<<10, nil)
		if i%4096 == 4095 {
			b.StopTimer()
			if err := k.Run(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	}
	b.StopTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkRoute isolates the XY path computation.
func BenchmarkRoute(b *testing.B) {
	k := sim.NewKernel()
	m := New(k, Paragon(16, 16))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.route(i%256, (i*73)%256)
	}
}
