package streak

import (
	"testing"
	"time"

	"repro/internal/scenario"
	"repro/internal/telemetry"
)

// TestPercentileSurfacesAgree pins that the scenario load report
// (streakload) and the telemetry lake summarize the same latencies with
// the same nearest-rank percentiles: the sample of 1-based rank ceil(p·n).
// The expected values are worked out by hand for n = 5, 7 and 20 samples
// of 1..n ms, fed in reverse order.
func TestPercentileSurfacesAgree(t *testing.T) {
	cases := []struct {
		n             int
		p50, p90, p99 int64 // ms
	}{
		{5, 3, 5, 5},
		{7, 4, 7, 7},
		{20, 10, 18, 20},
	}
	for _, c := range cases {
		var observed []scenario.Observation
		var recs []telemetry.Record
		for i := c.n; i >= 1; i-- {
			lat := time.Duration(i) * time.Millisecond
			observed = append(observed, scenario.Observation{Status: 200, Latency: lat})
			recs = append(recs, telemetry.Record{
				Schema: telemetry.SchemaVersion,
				Kind:   telemetry.KindReport,
				TimeMS: int64(i),
				Report: &telemetry.SolveReport{Method: "pd", DurUS: lat.Microseconds()},
			})
		}
		want := [3]int64{c.p50 * 1000, c.p90 * 1000, c.p99 * 1000}

		s := scenario.Summarize(observed)
		if got := [3]int64{s.P50us, s.P90us, s.P99us}; got != want {
			t.Errorf("n=%d: scenario p50/p90/p99 = %v us, want %v", c.n, got, want)
		}

		series, err := telemetry.ComputeSeries(recs, telemetry.SeriesOptions{Metric: telemetry.MetricSolveLatency})
		if err != nil {
			t.Fatal(err)
		}
		l := series.Latency["pd"]
		if l == nil {
			t.Fatalf("n=%d: no pd latency bucket", c.n)
		}
		if got := [3]int64{l.P50US, l.P90US, l.P99US}; got != want {
			t.Errorf("n=%d: telemetry p50/p90/p99 = %v us, want %v", c.n, got, want)
		}
	}
}
