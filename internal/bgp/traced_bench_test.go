package bgp

import (
	"testing"

	"spooftrack/internal/trace"
)

// BenchmarkPropagateTraced measures the tracing overhead on the
// propagation hot path. The "off" variant is the budget that matters:
// with the global tracer disabled, instrumented Propagate must stay
// within a few atomic loads of the uninstrumented baseline
// (BenchmarkPropagateFullScale). The "on" variant shows the full cost
// of journaling a span per propagation. Both release their outcomes, as
// BenchmarkPropagateFullScale does, so the three compare like with like.
func BenchmarkPropagateTraced(b *testing.B) {
	g, o := worldForTest(b, 42, 4000)
	e, err := NewEngine(g, o, DefaultParams(42))
	if err != nil {
		b.Fatal(err)
	}
	cfg := allLinksConfig(7)
	prev := trace.Global()
	defer trace.SetGlobal(prev)

	b.Run("off", func(b *testing.B) {
		trace.SetGlobal(trace.New(trace.Options{}))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out, err := e.Propagate(cfg)
			if err != nil {
				b.Fatal(err)
			}
			out.Release()
		}
	})
	b.Run("on", func(b *testing.B) {
		trace.SetGlobal(trace.New(trace.Options{Enabled: true, JournalCap: 4096}))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out, err := e.Propagate(cfg)
			if err != nil {
				b.Fatal(err)
			}
			out.Release()
		}
	})
}
