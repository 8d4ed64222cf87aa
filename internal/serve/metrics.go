package serve

import "github.com/dessertlab/certify/internal/obs"

// Flight-recorder instrumentation for the campaign server: queue wait
// per tenant, slot occupancy, cache effectiveness and the job lifecycle
// as a transition stream. Exposed on the server's own mux via
// GET /metrics (Prometheus) and GET /debug/vars (JSON).
var (
	metQueueWait = obs.Default.NewHistogramVec(
		"certify_serve_queue_wait_seconds",
		"Time a job waited from submission to execution start, by tenant.",
		"tenant", obs.LatencyBuckets)
	metSlotsBusy = obs.Default.NewGauge(
		"certify_serve_slots_busy",
		"Execution slots currently occupied.")
	metQueueDepth = obs.Default.NewGauge(
		"certify_serve_queue_depth",
		"Jobs waiting in the fair queue.")

	metCacheHits = obs.Default.NewCounter(
		"certify_serve_cache_hits_total",
		"Submissions answered from the verified result cache.")
	metCacheMisses = obs.Default.NewCounter(
		"certify_serve_cache_misses_total",
		"Cache probes that found no servable entry.")
	metCachePoisoned = obs.Default.NewCounter(
		"certify_serve_cache_poisoned_total",
		"Cache entries removed as poisoned (foreign or unreadable).")

	metMemoHits = obs.Default.NewCounter(
		"certify_serve_verified_memo_hits_total",
		"Cache reads (submit probes and artefact downloads) answered from a memoised verdict because the artefact's SHA-256 matched it.")
	metMemoMisses = obs.Default.NewCounter(
		"certify_serve_verified_memo_misses_total",
		"Cache reads of a present artefact with no memoised verdict (or, for downloads, no memoised canonical bytes) for its SHA-256, which ran full verification.")
	metMemoEvictions = obs.Default.NewCounter(
		"certify_serve_verified_memo_evictions_total",
		"Memoised verdicts evicted to keep the memo within its entry and byte bounds.")
	metMemoEntries = obs.Default.NewGauge(
		"certify_serve_verified_memo_entries",
		"Verdicts the verified-content memo holds.")
	metMemoHeldBytes = obs.Default.NewGauge(
		"certify_serve_verified_memo_held_bytes",
		"Bytes the verified-content memo holds: memoised canonical artefacts plus a fixed charge per verdict.")

	metJobTransitions = obs.Default.NewCounterVec(
		"certify_serve_job_transitions_total",
		"Job lifecycle transitions, by state entered.",
		"state")
)
