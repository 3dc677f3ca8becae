//! Every frozen workload parameter, each with the reason for its value.
//!
//! Nothing here is derived from measured speed at run time: a faster
//! kernel must change the measured numbers, never the workload. The
//! `--seed` argument only picks which frames are rendered, when frames
//! arrive and which session churns next; see [`crate::setup`].

/// Seed of the proxy weights (model `i` of F1, F2, M1.0 uses
/// `WEIGHT_SEED + i`): untrained proxies, so set-up needs no training or
/// cached artifacts.
pub const WEIGHT_SEED: u64 = 3;

/// Seed of the rendered calibration frames the proxies are quantized on;
/// fixed so every `--seed` runs the same programs.
pub const CALIB_SEED: u64 = 7;
/// Calibration sequences × frames: enough rendered frames for stable
/// min-max activation ranges.
pub const CALIB_SEQS: usize = 4;
/// Frames per calibration sequence.
pub const CALIB_FRAMES_PER_SEQ: usize = 8;

/// OP threshold of ensemble D1 (F1 little): escalates ~35% of `drone-d1`
/// frames at the commit that froze it, so the frame median is a
/// little-only frame and p95 an ensemble frame. It sits between two
/// quanta of the int8 output, so no score lands on it.
pub const TH_D1: f32 = 0.0574;
/// OP threshold of ensemble D2 (F2 little): escalates ~33% of fleet
/// frames, which gives 1–2 escalations per big pass at the open-loop
/// rates. It sits between two quanta of the int8 output.
pub const TH_D2: f32 = 0.0344;

/// `drone-d1` test-style sequences per seed: flights differ a lot in how
/// often they escalate, so 120 of them keep the escalation share, and
/// with it the stream's cost, within a few percent across seeds.
pub const DRONE_SEQS: usize = 120;
/// Frames per `drone-d1` sequence (2 s of flight at 10 Hz).
pub const DRONE_FRAMES_PER_SEQ: usize = 20;

/// Workers of the pool every workload runs on. One, not every CPU: on
/// the 2-vCPU reference VM each parallel region wakes the second vCPU,
/// and that wake-up swings with the host's load — the same `drone-d1`
/// median frame read 145 µs and 262 µs a quarter-hour apart at two
/// workers, against 132–150 µs at one — which puts run-to-run spread
/// past any usable bound.
pub const POOL_THREADS: usize = 1;

/// Concurrent sessions of both fleet workloads.
pub const FLEET_SESSIONS: usize = 16;
/// Widest cross-session big pass.
pub const MAX_COALESCE: usize = 4;

/// Frames each `fleet-d2-open` session submits per ladder repetition.
/// The per-session queue holds all of them, so the open loop never drops.
pub const OPEN_FRAMES_PER_SESSION: usize = 24;
/// Distinct `fleet-d2-open` flights; repetition `r` gives session `s`
/// flight `(s + 16 r) mod 96`, so a run averages over 96 flights.
pub const OPEN_STREAMS: usize = 96;
/// Aggregate Poisson arrival rates (frames/s) of the `fleet-d2-open`
/// ladder: ~25%, 50%, 75%, 100% and 120% of the ~1900 frames/s that the
/// one-worker server on the 2-vCPU reference host served within the
/// latency limit (its busy-time capacity is ~2900 frames/s).
pub const OPEN_RATES_FPS: [f64; 5] = [500.0, 1000.0, 1400.0, 1900.0, 2300.0];
/// Index of the rung whose latencies are the headline numbers: the
/// lightest, because on a shared 2-CPU host latency at higher load
/// amplifies host speed drift past any usable bound (queue wait grows as
/// `ρ / (1 − ρ)`); the loaded rungs are in the report file.
pub const OPEN_HEADLINE_RUNG: usize = 0;
/// Index of the rung past the latency-limit capacity whose busy-time
/// throughput is the headline throughput.
pub const OPEN_SATURATED_RUNG: usize = 4;
/// Served-latency limit on p99 (due time to completion), µs.
pub const LATENCY_LIMIT_US: f64 = 4000.0;

/// Frames rendered per `fleet-d2-drain` stream: more than a session's
/// 32-tick lifetime, so no backlog runs dry.
pub const DRAIN_FRAMES_PER_STREAM: usize = 36;
/// Distinct `fleet-d2-drain` streams that fresh sessions cycle through;
/// 64 flights keep the escalation share steady across seeds.
pub const DRAIN_STREAMS: usize = 64;
/// Ticks between two churn events (one retire + one admit): every
/// session lives `16 × 2` ticks.
pub const CHURN_TICKS: usize = 2;

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 7;

/// Frames the per-layer probes run per model.
pub const PROBE_FRAMES: usize = 120;

/// The seed kept out of every tuning run, for confirming later claims.
pub const HELD_OUT_SEED: u64 = 9001;

/// Escalations (frames that ran the big model) of each workload's
/// isolated reference pass, frozen per seed at the commit that froze the
/// thresholds: `(workload, seed, big frames)`. A change means outputs
/// changed. Seeds not listed are checked only against the reference.
pub const FROZEN_BIG_FRAMES: &[(&str, u64, u64)] = &[
    ("drone-d1", 0, 826),
    ("drone-d1", 1, 831),
    ("drone-d1", 2, 811),
    ("drone-d1", 3, 861),
    ("drone-d1", 4, 854),
    ("drone-d1", 5, 789),
    ("drone-d1", 6, 824),
    ("drone-d1", 7, 796),
    ("drone-d1", 8, 819),
    ("drone-d1", 9, 838),
    ("drone-d1", 10, 826),
    ("drone-d1", 11, 827),
    ("drone-d1", 12, 847),
    ("drone-d1", 13, 823),
    ("drone-d1", 14, 883),
    ("drone-d1", 15, 828),
    ("drone-d1", 16, 819),
    ("drone-d1", 17, 823),
    ("drone-d1", 18, 873),
    ("drone-d1", 19, 850),
    ("drone-d1", 20, 823),
    ("drone-d1", 21, 813),
    ("drone-d1", 22, 860),
    ("drone-d1", 23, 857),
    ("drone-d1", 24, 817),
    ("drone-d1", 25, 849),
    ("drone-d1", 26, 819),
    ("drone-d1", 27, 806),
    ("drone-d1", 28, 827),
    ("drone-d1", 29, 851),
    ("drone-d1", 30, 807),
    ("drone-d1", 31, 822),
    ("drone-d1", 9001, 789),
    ("fleet-d2-open", 0, 707),
    ("fleet-d2-open", 1, 782),
    ("fleet-d2-open", 2, 785),
    ("fleet-d2-open", 3, 822),
    ("fleet-d2-open", 4, 782),
    ("fleet-d2-open", 5, 782),
    ("fleet-d2-open", 6, 781),
    ("fleet-d2-open", 7, 799),
    ("fleet-d2-open", 8, 785),
    ("fleet-d2-open", 9, 803),
    ("fleet-d2-open", 10, 778),
    ("fleet-d2-open", 11, 796),
    ("fleet-d2-open", 12, 833),
    ("fleet-d2-open", 13, 818),
    ("fleet-d2-open", 14, 752),
    ("fleet-d2-open", 15, 837),
    ("fleet-d2-open", 16, 783),
    ("fleet-d2-open", 17, 819),
    ("fleet-d2-open", 18, 815),
    ("fleet-d2-open", 19, 768),
    ("fleet-d2-open", 20, 754),
    ("fleet-d2-open", 21, 807),
    ("fleet-d2-open", 22, 819),
    ("fleet-d2-open", 23, 819),
    ("fleet-d2-open", 24, 793),
    ("fleet-d2-open", 25, 803),
    ("fleet-d2-open", 26, 752),
    ("fleet-d2-open", 27, 844),
    ("fleet-d2-open", 28, 809),
    ("fleet-d2-open", 29, 762),
    ("fleet-d2-open", 30, 793),
    ("fleet-d2-open", 31, 793),
    ("fleet-d2-open", 9001, 780),
    ("fleet-d2-drain", 0, 755),
    ("fleet-d2-drain", 1, 762),
    ("fleet-d2-drain", 2, 783),
    ("fleet-d2-drain", 3, 717),
    ("fleet-d2-drain", 4, 834),
    ("fleet-d2-drain", 5, 767),
    ("fleet-d2-drain", 6, 659),
    ("fleet-d2-drain", 7, 780),
    ("fleet-d2-drain", 8, 796),
    ("fleet-d2-drain", 9, 747),
    ("fleet-d2-drain", 10, 804),
    ("fleet-d2-drain", 11, 773),
    ("fleet-d2-drain", 12, 786),
    ("fleet-d2-drain", 13, 745),
    ("fleet-d2-drain", 14, 767),
    ("fleet-d2-drain", 15, 762),
    ("fleet-d2-drain", 16, 776),
    ("fleet-d2-drain", 17, 765),
    ("fleet-d2-drain", 18, 823),
    ("fleet-d2-drain", 19, 760),
    ("fleet-d2-drain", 20, 775),
    ("fleet-d2-drain", 21, 779),
    ("fleet-d2-drain", 22, 795),
    ("fleet-d2-drain", 23, 799),
    ("fleet-d2-drain", 24, 717),
    ("fleet-d2-drain", 25, 755),
    ("fleet-d2-drain", 26, 717),
    ("fleet-d2-drain", 27, 751),
    ("fleet-d2-drain", 28, 746),
    ("fleet-d2-drain", 29, 745),
    ("fleet-d2-drain", 30, 792),
    ("fleet-d2-drain", 31, 771),
    ("fleet-d2-drain", 9001, 860),
];
