package scenario

// End-to-end robustness invariants. cmd/streakload converts every
// response (and every async job's terminal state) into an Observation;
// CheckInvariants then judges the whole run. The invariants encode what
// "survived hostile traffic" means for streakd:
//
//   - transport-clean: every request got an HTTP response — no connection
//     errors, no client-side deadline blowouts. Shedding is fine; hanging
//     is not.
//   - shed-retry-after: every 429 carries a Retry-After of at least 1s —
//     shed responses must tell well-behaved clients when to come back.
//   - drain-retry-after: every 503 from a draining server carries
//     Retry-After too; drain is a retryable condition, not an outage.
//   - shed-budget: the shed fraction stays under the scenario's budget.
//     Overload shedding is correct behavior, collapse is not.
//   - no-uninjected-5xx: every 5xx is attributable to the armed fault
//     plan (its body carries the faultinject marker). A 5xx the chaos
//     schedule didn't cause is a real bug.
//   - audit-legal: every 2xx result that carries an audit verdict is
//     audit-clean — including (especially) incremental cache results
//     under ECO churn.
//   - jobs-complete: every accepted async job reaches a terminal state
//     and is never lost; FAILED is legal only when the failure is
//     injected.

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

// Observation is the driver's record of one request's fate.
type Observation struct {
	// Index is the request's position in the program.
	Index int `json:"index"`
	// Path is the endpoint hit ("/route", "/jobs").
	Path string `json:"path"`
	// Status is the HTTP status, 0 when the request never got a response.
	Status int `json:"status"`
	// Latency is request round-trip time.
	Latency time.Duration `json:"latency"`
	// RetryAfter is the parsed Retry-After header in seconds, -1 if absent.
	RetryAfter int `json:"retry_after"`
	// ErrMsg is the error body text for non-2xx responses.
	ErrMsg string `json:"err_msg,omitempty"`
	// Cache is the solve-cache outcome on 2xx ("hit", "incremental",
	// "cold", "cold-fallback", "bypass").
	Cache string `json:"cache,omitempty"`
	// AuditOK is the response's audit verdict; nil when the response
	// carried none.
	AuditOK *bool `json:"audit_ok,omitempty"`
	// TransportErr is a client-side failure (dial, reset, timeout), ""
	// when the request completed.
	TransportErr string `json:"transport_err,omitempty"`
	// JobID is set for accepted /jobs submissions.
	JobID string `json:"job_id,omitempty"`
	// JobState is the job's final observed state.
	JobState string `json:"job_state,omitempty"`
	// JobError is the job's error text, if it failed.
	JobError string `json:"job_error,omitempty"`
	// JobLost marks a job the server accepted but later had no record of,
	// or that never reached a terminal state before the driver gave up.
	JobLost bool `json:"job_lost,omitempty"`
}

// Injected reports whether the observation's failure is attributable to
// the armed fault plan: injected solver and job errors carry the
// faultinject marker through error bodies and job error strings.
func (o Observation) Injected() bool {
	return strings.Contains(o.ErrMsg, "faultinject") || strings.Contains(o.JobError, "faultinject")
}

// CheckConfig tunes the invariant set for one run.
type CheckConfig struct {
	// MaxShedFrac is the largest tolerated fraction of 429 responses.
	// Default 0.8: even a burst scenario designed to shed must leave the
	// server serving, not collapsed.
	MaxShedFrac float64
	// FaultsArmed records whether a fault plan ran; when false, the
	// no-uninjected-5xx invariant tolerates no 5xx at all.
	FaultsArmed bool
}

// InvariantResult is one invariant's verdict over a whole run.
type InvariantResult struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// AllOK reports whether every invariant passed.
func AllOK(results []InvariantResult) bool {
	for _, r := range results {
		if !r.OK {
			return false
		}
	}
	return true
}

// CheckInvariants judges a completed run. It always returns the full
// invariant list, passed and failed, so a scenario report shows what was
// checked, not just what broke.
func CheckInvariants(obs []Observation, cfg CheckConfig) []InvariantResult {
	if cfg.MaxShedFrac <= 0 {
		cfg.MaxShedFrac = 0.8
	}
	var out []InvariantResult
	add := func(name string, bad []string) {
		res := InvariantResult{Name: name, OK: len(bad) == 0}
		if !res.OK {
			const keep = 5
			detail := bad
			if len(detail) > keep {
				detail = append(detail[:keep:keep], fmt.Sprintf("... and %d more", len(bad)-keep))
			}
			res.Detail = strings.Join(detail, "; ")
		}
		out = append(out, res)
	}

	var bad []string
	for _, o := range obs {
		if o.TransportErr != "" {
			bad = append(bad, fmt.Sprintf("req %d (%s): %s", o.Index, o.Path, o.TransportErr))
		}
	}
	add("transport-clean", bad)

	bad = nil
	for _, o := range obs {
		if o.Status == 429 && o.RetryAfter < 1 {
			bad = append(bad, fmt.Sprintf("req %d: 429 with Retry-After=%d", o.Index, o.RetryAfter))
		}
	}
	add("shed-retry-after", bad)

	bad = nil
	for _, o := range obs {
		if o.Status == 503 && strings.Contains(o.ErrMsg, "draining") && o.RetryAfter < 1 {
			bad = append(bad, fmt.Sprintf("req %d: draining 503 with Retry-After=%d", o.Index, o.RetryAfter))
		}
	}
	add("drain-retry-after", bad)

	bad = nil
	if len(obs) > 0 {
		shed := 0
		for _, o := range obs {
			if o.Status == 429 {
				shed++
			}
		}
		frac := float64(shed) / float64(len(obs))
		if frac > cfg.MaxShedFrac {
			bad = []string{fmt.Sprintf("shed %d/%d = %.2f > budget %.2f", shed, len(obs), frac, cfg.MaxShedFrac)}
		}
	}
	add("shed-budget", bad)

	bad = nil
	for _, o := range obs {
		if o.Status >= 500 && o.Status != 503 && !(cfg.FaultsArmed && o.Injected()) {
			bad = append(bad, fmt.Sprintf("req %d: uninjected %d: %.120s", o.Index, o.Status, o.ErrMsg))
		}
	}
	add("no-uninjected-5xx", bad)

	bad = nil
	for _, o := range obs {
		if o.Status >= 200 && o.Status < 300 && o.AuditOK != nil && !*o.AuditOK {
			bad = append(bad, fmt.Sprintf("req %d: 2xx with failed audit (cache=%s)", o.Index, o.Cache))
		}
	}
	add("audit-legal", bad)

	bad = nil
	for _, o := range obs {
		if o.JobID == "" {
			continue
		}
		switch {
		case o.JobLost:
			bad = append(bad, fmt.Sprintf("job %s (req %d): lost", o.JobID, o.Index))
		case o.JobState == "FAILED" && !(cfg.FaultsArmed && o.Injected()):
			bad = append(bad, fmt.Sprintf("job %s (req %d): uninjected failure: %.120s", o.JobID, o.Index, o.JobError))
		}
	}
	add("jobs-complete", bad)

	return out
}

// Summary aggregates a run for the scenario report.
type Summary struct {
	Requests      int            `json:"requests"`
	ByStatus      map[string]int `json:"by_status"`
	ByCache       map[string]int `json:"by_cache,omitempty"`
	ShedFrac      float64        `json:"shed_frac"`
	P50us         int64          `json:"p50_us"`
	P90us         int64          `json:"p90_us"`
	P99us         int64          `json:"p99_us"`
	JobsAccepted  int            `json:"jobs_accepted"`
	JobsSucceeded int            `json:"jobs_succeeded"`
	JobsFailed    int            `json:"jobs_failed"`
	JobsLost      int            `json:"jobs_lost"`
}

// Summarize reduces a run's observations to the scenario report numbers.
// Latency percentiles are nearest-rank (obs.NearestRank) over successful
// (2xx) responses only.
func Summarize(observed []Observation) Summary {
	s := Summary{Requests: len(observed), ByStatus: map[string]int{}, ByCache: map[string]int{}}
	var lat []time.Duration
	shed := 0
	for _, o := range observed {
		key := fmt.Sprintf("%d", o.Status)
		if o.TransportErr != "" {
			key = "transport-error"
		}
		s.ByStatus[key]++
		if o.Status == 429 {
			shed++
		}
		if o.Status >= 200 && o.Status < 300 {
			lat = append(lat, o.Latency)
			if o.Cache != "" {
				s.ByCache[o.Cache]++
			}
		}
		if o.JobID != "" {
			s.JobsAccepted++
			switch {
			case o.JobLost:
				s.JobsLost++
			case o.JobState == "SUCCEEDED":
				s.JobsSucceeded++
			case o.JobState == "FAILED":
				s.JobsFailed++
			}
		}
	}
	if len(observed) > 0 {
		s.ShedFrac = float64(shed) / float64(len(observed))
	}
	if len(lat) > 0 {
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		pct := func(p float64) int64 { return obs.NearestRank(lat, p).Microseconds() }
		s.P50us, s.P90us, s.P99us = pct(0.50), pct(0.90), pct(0.99)
	}
	return s
}
