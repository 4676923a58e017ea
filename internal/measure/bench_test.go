package measure

import (
	"testing"

	"spooftrack/internal/addr"
	"spooftrack/internal/stats"
)

// benchObservation builds one paper-scale observation: 4000 ASes, 250
// collectors, 1600 probes with the default traceroute noise and a 2%
// IP-to-AS error rate, under anycast on every link.
func benchObservation(b *testing.B) (Observation, InferInput) {
	b.Helper()
	w := newMeasureWorld(b, 42, 4000, 250, 1600)
	noisy, err := addr.NewNoisyMapper(w.space, 0.02, 42)
	if err != nil {
		b.Fatal(err)
	}
	in := w.input
	in.Mapper = noisy
	out, err := w.platform.Propagate(anycastAll(w.platform.NumLinks()))
	if err != nil {
		b.Fatal(err)
	}
	return Collect(out, w.vantages, w.space, DefaultNoise(), stats.NewRNG(42)), in
}

// BenchmarkInfer and BenchmarkInferReference time one configuration's
// inference (repair, AS-path mapping, voting) against the original
// implementation kept in reference_test.go; scripts/bench.sh gates their
// ratio.
func BenchmarkInfer(b *testing.B) { benchInfer(b, Infer) }

func BenchmarkInferReference(b *testing.B) { benchInfer(b, refInfer) }

// inferSink keeps the benchmarked result live.
var inferSink *CatchmentMeasurement

func benchInfer(b *testing.B, infer func(Observation, InferInput) *CatchmentMeasurement) {
	obs, in := benchObservation(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inferSink = infer(obs, in)
	}
}
