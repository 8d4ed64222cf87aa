package core

import "github.com/dessertlab/certify/internal/obs"

// Flight-recorder instrumentation for the experiment hot path. Naming
// follows certify_<layer>_<what>_<unit> (see DESIGN.md "Observability &
// flight recorder"). Everything here is out-of-band: the metrics read
// wall clocks and engine telemetry, never run state, so instrumented
// campaigns stay bit-identical to uninstrumented ones (pinned by
// TestInstrumentationIsOutOfBand in internal/dist).
var (
	metRunsTotal = obs.Default.NewCounter(
		"certify_core_runs_total",
		"Experiment runs completed (all verdicts).")
	metRunDuration = obs.Default.NewHistogram(
		"certify_core_run_duration_seconds",
		"Wall time of one experiment run, machine acquisition included.",
		obs.LatencyBuckets)
	metSimEvents = obs.Default.NewCounter(
		"certify_core_sim_events_total",
		"Simulation events delivered across all runs and the golden passes that record their timelines.")
	metSimEventsByKind = obs.Default.NewCounterVec(
		"certify_core_sim_events_by_kind_total",
		"Simulation events delivered across all runs and golden passes, by the board's handler kind; the kinds sum to certify_core_sim_events_total.",
		"kind")
	metSimEventsPerRun = obs.Default.NewHistogram(
		"certify_core_sim_events_per_run",
		"Simulation events delivered in one run, its timeline's golden pass excluded.",
		obs.ExpBuckets(256, 4, 12))

	metPoolGet = obs.Default.NewHistogram(
		"certify_pool_get_seconds",
		"Machine acquisition from the pool: an idle pop or a cold build (the warm rewind is timed by certify_pool_machine_restore_seconds).",
		obs.LatencyBuckets)
	metPoolPut = obs.Default.NewHistogram(
		"certify_pool_put_seconds",
		"MachinePool.Put latency.",
		obs.LatencyBuckets)
	metRestore = obs.Default.NewHistogram(
		"certify_pool_machine_restore_seconds",
		"Latency of rewinding a pooled machine for its next run: the post-boot image or golden-timeline checkpoint restore, including the golden pass that first records a timeline up to the run's horizon (a cold build's first run is not timed here).",
		obs.LatencyBuckets)
	metPoolColdBuilds = obs.Default.NewCounter(
		"certify_pool_cold_builds_total",
		"Pool acquisitions that built a machine cold (no idle machine of the requested boot profile).")
	metPoolReuses = obs.Default.NewCounter(
		"certify_pool_reuses_total",
		"Pool acquisitions answered by a warm machine (rewound by checkpoint restore, not rebuilt).")
	metPoolEvictions = obs.Default.NewCounter(
		"certify_pool_evictions_total",
		"Idle machines of another boot profile dropped to make room for a cold build, so a pool never outgrows its peak concurrency.")

	metSnapshotRestore = obs.Default.NewHistogram(
		"certify_core_snapshot_restore_seconds",
		"Latency of one checkpoint restore (post-boot image or golden-timeline checkpoint).",
		obs.LatencyBuckets)
	metPagesDirtied = obs.Default.NewCounter(
		"certify_core_snapshot_pages_dirtied_total",
		"RAM pages the preceding run touched, summed over snapshot restores.")
	metPagesRestored = obs.Default.NewCounter(
		"certify_core_snapshot_pages_restored_total",
		"RAM pages copied back from checkpoint images.")
	metCheckpointRestores = obs.Default.NewCounter(
		"certify_core_checkpoint_restores_total",
		"Runs started from a golden-timeline checkpoint past the post-boot image.")
	metCheckpointSkipped = obs.Default.NewCounter(
		"certify_core_checkpoint_skipped_virtual_milliseconds_total",
		"Virtual milliseconds of fault-free prefix not re-simulated because runs started from golden-timeline checkpoints.")
	metCheckpointCaptures = obs.Default.NewCounter(
		"certify_core_checkpoint_captures_total",
		"Golden-timeline checkpoints captured by golden passes.")
	metCutoffRuns = obs.Default.NewCounter(
		"certify_core_cutoff_runs_total",
		"Runs whose simulation stopped early because their state rejoined the golden trajectory after the last possible injection; the rest of the run was spliced from the golden timeline.")
	metCutoffSkipped = obs.Default.NewCounter(
		"certify_core_cutoff_skipped_virtual_milliseconds_total",
		"Virtual milliseconds between a cut-off run's rejoin boundary and its horizon, taken from the golden timeline instead of simulated.")
	metFastForwards = obs.Default.NewCounter(
		"certify_core_fastforward_total",
		"Jumps of runs that rejoined the golden trajectory to the last golden checkpoint before their next injection, short of the horizon; the stretch was spliced from the golden timeline.")
	metFastForwardSkipped = obs.Default.NewCounter(
		"certify_core_fastforward_skipped_virtual_milliseconds_total",
		"Virtual milliseconds between a fast-forwarded run's rejoin boundary and its landing checkpoint, taken from the golden timeline instead of simulated.")
	metRejoinRefused = obs.Default.NewCounterVec(
		"certify_core_rejoin_refused_total",
		"Grid boundaries where a run that could have jumped ahead stayed on its own trajectory, by the first rejoin check that told its state apart from the golden checkpoint (a taint, or the cpus, devices, machine, hypervisor, root_linux, kernels, queue or ram state).",
		"check")
	metTimelineExtension = obs.Default.NewCounter(
		"certify_core_timeline_extension_milliseconds_total",
		"Virtual milliseconds of fault-free simulation the golden passes spent recording golden timelines up to a run's horizon before the run, so runs can start late and be fast-forwarded or cut off.")
	metPoolDrops = obs.Default.NewCounter(
		"certify_pool_tainted_drops_total",
		"Machines dropped at MachinePool.Put because the run ended in a sim-fault or machine wedge.")
)

// The rejoin refusal series, one per check (see Machine.mismatch).
var (
	refusedTainted    = metRejoinRefused.With("tainted")
	refusedCPUs       = metRejoinRefused.With("cpus")
	refusedDevices    = metRejoinRefused.With("devices")
	refusedMachine    = metRejoinRefused.With("machine")
	refusedHypervisor = metRejoinRefused.With("hypervisor")
	refusedRootLinux  = metRejoinRefused.With("root_linux")
	refusedKernels    = metRejoinRefused.With("kernels")
	refusedQueue      = metRejoinRefused.With("queue")
	refusedRAM        = metRejoinRefused.With("ram")
)
