//! # np-trace
//!
//! Zero-allocation runtime telemetry for the nanopose frame loop.
//!
//! The paper's contribution is a *runtime tradeoff* — which ensemble
//! member ran, how often the big net fired, what each frame cost — so the
//! runtime needs permanent eyes, not one-shot bench binaries. This crate
//! is the instrumentation layer the rest of the workspace records into:
//!
//! * **Spans** — named durations (one per compiled layer step, per model
//!   frame, per ensemble member). Span names are registered once at
//!   compile/setup time for a small integer [`SpanId`]; the hot path
//!   records fixed-size [`SpanEvent`]s into a preallocated ring buffer
//!   and a per-span [`hist::LogHistogram`], so steady-state recording
//!   performs **zero heap allocations**.
//! * **Counters** — a fixed registry of process-wide atomics
//!   ([`Counter`]) for pool dispatch/utilization and frame totals.
//! * **Frame events** — one fixed-size [`FrameEvent`] per adaptive frame
//!   (policy decision, OP score vs threshold, little/big latency split),
//!   in their own ring.
//! * **Export** — [`export`] renders summaries (p50/p95/p99 per span) and
//!   Chrome `chrome://tracing` JSON; [`drift`] compares measured layer
//!   times against the np-gap8 cycle-model prediction.
//! * **Log facade** — [`log`] plus the [`info!`]/[`warn!`]/[`warn_once!`]
//!   macros, so library crates never print to stderr directly.
//!
//! # Enabling
//!
//! Two switches, both off by default:
//!
//! 1. the `trace` **cargo feature** compiles the hot-path recording in
//!    (without it [`start`]/[`finish`]/[`counter_add`]/[`record_frame`]
//!    are empty inline functions the optimizer deletes);
//! 2. the **runtime flag** ([`enable`]) arms the recorder. Compiled-in
//!    but disabled instrumentation costs one relaxed atomic load per
//!    probe.
//!
//! ```
//! let id = np_trace::register_span("model/00-conv");
//! np_trace::enable(); // no-op without the `trace` feature
//! let t0 = np_trace::start();
//! // ... run the layer ...
//! np_trace::finish(id, t0, 4096);
//! for s in np_trace::summary() {
//!     println!("{} p50={}ns p99={}ns", s.name, s.p50_ns, s.p99_ns);
//! }
//! ```

pub mod drift;
pub mod export;
pub mod hist;
pub mod log;

pub use export::SpanSummary;

#[cfg(feature = "trace")]
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
#[cfg(feature = "trace")]
use std::sync::{Mutex, OnceLock};
#[cfg(feature = "trace")]
use std::time::Instant;

/// Identifier of a registered span name. Cheap to copy and store in
/// compiled programs; obtained from [`register_span`] at setup time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

impl SpanId {
    /// Sentinel returned when the `trace` feature is compiled out.
    pub const INACTIVE: SpanId = SpanId(u32::MAX);

    /// The raw registry index (`u32::MAX` for [`SpanId::INACTIVE`]).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One recorded span occurrence: a fixed-size POD the ring buffer holds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanEvent {
    /// Registry index of the span name.
    pub span: u32,
    /// Start time in nanoseconds since the recorder epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Bytes touched by the spanned operation (0 when not meaningful).
    pub bytes: u64,
}

/// What the adaptive policy chose for a frame, decoupled from
/// `np-adaptive` so this crate stays at the bottom of the dependency
/// graph.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FrameDecision {
    /// Only the little model ran.
    #[default]
    Small,
    /// Only the big model ran.
    Big,
    /// Both ran and the outputs were averaged.
    Ensemble,
}

impl FrameDecision {
    /// Lowercase label for exports.
    pub fn name(self) -> &'static str {
        match self {
            FrameDecision::Small => "small",
            FrameDecision::Big => "big",
            FrameDecision::Ensemble => "ensemble",
        }
    }

    /// True when the big model ran.
    pub fn runs_big(self) -> bool {
        matches!(self, FrameDecision::Big | FrameDecision::Ensemble)
    }
}

/// Per-frame adaptive-policy telemetry: a fixed-size POD recorded once
/// per streamed frame.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FrameEvent {
    /// Frame index within the runner's stream.
    pub frame: u64,
    /// What the policy chose.
    pub decision: FrameDecision,
    /// The OP score that drove the decision (`NaN` on the first frame of
    /// a sequence, which has no predecessor).
    pub op_score: f32,
    /// The policy threshold the score was compared against.
    pub threshold: f32,
    /// Wall time of the little model's inference, nanoseconds.
    pub little_ns: u64,
    /// Wall time of the big model's inference (0 when it did not run).
    pub big_ns: u64,
}

/// Process-wide counters with fixed identity — incrementing one is a
/// single relaxed atomic add, and registration never happens at runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Parallel regions entered (`Pool::for_each_chunk` /
    /// `Pool::for_each_mut`).
    PoolRegions,
    /// Parallel regions that ran inline on the calling thread (width 1 or
    /// clamped by `for_work`).
    PoolInlineRegions,
    /// Worker threads spawned across all fanned-out regions.
    PoolWorkerSpawns,
    /// Work items (tasks or chunks) processed by pool regions.
    PoolItems,
    /// Frames streamed through adaptive runners.
    FramesTotal,
    /// Frames on which the big model ran.
    FramesBig,
    /// Sessions admitted into a serving slab (`serve.sessions_active` is
    /// derived as admitted − retired).
    ServeSessionsAdmitted,
    /// Sessions retired back to the serving slab's freelist.
    ServeSessionsRetired,
    /// Frames accepted into per-session serving queues.
    ServeFramesEnqueued,
    /// Frames completed by serving ticks.
    ServeFramesServed,
    /// Frames rejected because a session's queue was full (backpressure).
    ServeFramesDropped,
    /// Served frames the OP policy escalated to the big model.
    ServeFramesEscalated,
    /// Cross-session batched big-model passes executed.
    ServeBigBatches,
    /// High-water mark of any single session's queue depth (recorded with
    /// [`counter_max`], not an accumulating sum).
    ServeQueueDepthPeak,
}

impl Counter {
    /// Every counter, in export order.
    pub const ALL: [Counter; 14] = [
        Counter::PoolRegions,
        Counter::PoolInlineRegions,
        Counter::PoolWorkerSpawns,
        Counter::PoolItems,
        Counter::FramesTotal,
        Counter::FramesBig,
        Counter::ServeSessionsAdmitted,
        Counter::ServeSessionsRetired,
        Counter::ServeFramesEnqueued,
        Counter::ServeFramesServed,
        Counter::ServeFramesDropped,
        Counter::ServeFramesEscalated,
        Counter::ServeBigBatches,
        Counter::ServeQueueDepthPeak,
    ];

    /// Dotted export name.
    pub fn name(self) -> &'static str {
        match self {
            Counter::PoolRegions => "pool.regions",
            Counter::PoolInlineRegions => "pool.inline_regions",
            Counter::PoolWorkerSpawns => "pool.worker_spawns",
            Counter::PoolItems => "pool.items",
            Counter::FramesTotal => "frames.total",
            Counter::FramesBig => "frames.big",
            Counter::ServeSessionsAdmitted => "serve.sessions_admitted",
            Counter::ServeSessionsRetired => "serve.sessions_retired",
            Counter::ServeFramesEnqueued => "serve.frames_enqueued",
            Counter::ServeFramesServed => "serve.frames_served",
            Counter::ServeFramesDropped => "serve.frames_dropped",
            Counter::ServeFramesEscalated => "serve.frames_escalated",
            Counter::ServeBigBatches => "serve.big_batches",
            Counter::ServeQueueDepthPeak => "serve.queue_depth_peak",
        }
    }
}

#[cfg(feature = "trace")]
const N_COUNTERS: usize = Counter::ALL.len();

/// Ring-buffer capacities for [`install`]. Both rings are preallocated in
/// full so steady-state recording never allocates; when full, the oldest
/// events are overwritten (summaries are histogram-backed and unaffected).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Capacity of the span-event ring.
    pub span_events: usize,
    /// Capacity of the frame-event ring.
    pub frame_events: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            span_events: 1 << 16,
            frame_events: 1 << 12,
        }
    }
}

// ---------------------------------------------------------------------------
// Recorder internals (compiled only with the `trace` feature).
// ---------------------------------------------------------------------------

#[cfg(feature = "trace")]
struct SpanInfo {
    name: String,
    hist: hist::LogHistogram,
    total_ns: u64,
    bytes: u64,
}

#[cfg(feature = "trace")]
struct Ring<T> {
    buf: Vec<T>,
    next: usize,
    wrapped: bool,
}

#[cfg(feature = "trace")]
impl<T: Copy + Default> Ring<T> {
    fn with_capacity(cap: usize) -> Self {
        Ring {
            buf: vec![T::default(); cap.max(1)],
            next: 0,
            wrapped: false,
        }
    }

    /// Overwrites the oldest slot when full. Never allocates.
    fn push(&mut self, v: T) {
        self.buf[self.next] = v;
        self.next += 1;
        if self.next == self.buf.len() {
            self.next = 0;
            self.wrapped = true;
        }
    }

    /// Contents in chronological order (allocates; export path only).
    fn snapshot(&self) -> Vec<T> {
        if self.wrapped {
            let mut out = Vec::with_capacity(self.buf.len());
            out.extend_from_slice(&self.buf[self.next..]);
            out.extend_from_slice(&self.buf[..self.next]);
            out
        } else {
            self.buf[..self.next].to_vec()
        }
    }

    fn clear(&mut self) {
        self.next = 0;
        self.wrapped = false;
    }
}

#[cfg(feature = "trace")]
struct Rings {
    events: Ring<SpanEvent>,
    frames: Ring<FrameEvent>,
}

#[cfg(feature = "trace")]
static ENABLED: AtomicBool = AtomicBool::new(false);
#[cfg(feature = "trace")]
static REGISTRY: Mutex<Vec<SpanInfo>> = Mutex::new(Vec::new());
#[cfg(feature = "trace")]
static RINGS: Mutex<Option<Rings>> = Mutex::new(None);
#[cfg(feature = "trace")]
static COUNTERS: [AtomicU64; N_COUNTERS] = [const { AtomicU64::new(0) }; N_COUNTERS];
#[cfg(feature = "trace")]
static EPOCH: OnceLock<Instant> = OnceLock::new();

#[cfg(feature = "trace")]
#[inline]
fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

// ---------------------------------------------------------------------------
// Public API — present in both modes so downstream crates need no cfg.
// ---------------------------------------------------------------------------

/// Preallocates the event rings. Idempotent: the first call sizes them,
/// later calls are ignored (use [`reset`] to clear data). Without the
/// `trace` feature this is a no-op.
pub fn install(config: TraceConfig) {
    #[cfg(feature = "trace")]
    {
        let mut rings = RINGS.lock().expect("trace rings lock poisoned");
        if rings.is_none() {
            *rings = Some(Rings {
                events: Ring::with_capacity(config.span_events),
                frames: Ring::with_capacity(config.frame_events),
            });
        }
        let _ = now_ns(); // pin the epoch before any recording
    }
    #[cfg(not(feature = "trace"))]
    let _ = config;
}

/// Arms the recorder, installing default-capacity rings if [`install`]
/// was never called. No-op without the `trace` feature.
pub fn enable() {
    #[cfg(feature = "trace")]
    {
        install(TraceConfig::default());
        ENABLED.store(true, Ordering::Release);
    }
}

/// Disarms the recorder; recorded data is kept for export.
pub fn disable() {
    #[cfg(feature = "trace")]
    ENABLED.store(false, Ordering::Release);
}

/// True when instrumentation is compiled in *and* runtime-enabled.
#[inline]
pub fn active() -> bool {
    #[cfg(feature = "trace")]
    {
        ENABLED.load(Ordering::Relaxed)
    }
    #[cfg(not(feature = "trace"))]
    {
        false
    }
}

/// Registers a span name, returning its stable id. Allocates — call at
/// compile/setup time, never per frame. Ids are process-global and are
/// never recycled; [`reset`] clears recorded data but keeps names valid.
pub fn register_span(name: &str) -> SpanId {
    #[cfg(feature = "trace")]
    {
        let mut reg = REGISTRY.lock().expect("trace registry lock poisoned");
        reg.push(SpanInfo {
            name: name.to_string(),
            hist: hist::LogHistogram::new(),
            total_ns: 0,
            bytes: 0,
        });
        SpanId((reg.len() - 1) as u32)
    }
    #[cfg(not(feature = "trace"))]
    {
        let _ = name;
        SpanId::INACTIVE
    }
}

/// Starts a span clock: nanoseconds since the recorder epoch, or
/// `u64::MAX` when recording is inactive (which makes the matching
/// [`finish`] a no-op).
#[inline]
pub fn start() -> u64 {
    #[cfg(feature = "trace")]
    {
        if active() {
            now_ns()
        } else {
            u64::MAX
        }
    }
    #[cfg(not(feature = "trace"))]
    {
        u64::MAX
    }
}

/// Completes a span started with [`start`]: records the duration into the
/// span's histogram and pushes one [`SpanEvent`] into the ring. Returns
/// the measured duration in nanoseconds (0 when inactive). Zero-alloc.
#[inline]
pub fn finish(id: SpanId, start_ns: u64, bytes: u64) -> u64 {
    #[cfg(feature = "trace")]
    {
        if start_ns == u64::MAX || !active() || id == SpanId::INACTIVE {
            return 0;
        }
        let dur_ns = now_ns().saturating_sub(start_ns);
        {
            let mut reg = REGISTRY.lock().expect("trace registry lock poisoned");
            if let Some(info) = reg.get_mut(id.index()) {
                info.hist.record(dur_ns);
                info.total_ns = info.total_ns.saturating_add(dur_ns);
                info.bytes = info.bytes.saturating_add(bytes);
            }
        }
        if let Some(rings) = RINGS.lock().expect("trace rings lock poisoned").as_mut() {
            rings.events.push(SpanEvent {
                span: id.0,
                start_ns,
                dur_ns,
                bytes,
            });
        }
        dur_ns
    }
    #[cfg(not(feature = "trace"))]
    {
        let _ = (id, start_ns, bytes);
        0
    }
}

/// Records one adaptive-frame telemetry event into the frame ring.
/// Zero-alloc; no-op when recording is inactive.
#[inline]
pub fn record_frame(ev: FrameEvent) {
    #[cfg(feature = "trace")]
    {
        if !active() {
            return;
        }
        if let Some(rings) = RINGS.lock().expect("trace rings lock poisoned").as_mut() {
            rings.frames.push(ev);
        }
    }
    #[cfg(not(feature = "trace"))]
    let _ = ev;
}

/// Adds `n` to a fixed counter. One relaxed atomic add; no-op when
/// recording is inactive.
#[inline]
pub fn counter_add(counter: Counter, n: u64) {
    #[cfg(feature = "trace")]
    {
        if active() {
            COUNTERS[counter as usize].fetch_add(n, Ordering::Relaxed);
        }
    }
    #[cfg(not(feature = "trace"))]
    let _ = (counter, n);
}

/// Raises a fixed counter to at least `v` — a gauge high-water mark
/// (e.g. [`Counter::ServeQueueDepthPeak`]) rather than an accumulating
/// sum. One relaxed atomic `fetch_max`; no-op when recording is inactive.
#[inline]
pub fn counter_max(counter: Counter, v: u64) {
    #[cfg(feature = "trace")]
    {
        if active() {
            COUNTERS[counter as usize].fetch_max(v, Ordering::Relaxed);
        }
    }
    #[cfg(not(feature = "trace"))]
    let _ = (counter, v);
}

/// Current value of one counter (0 without the `trace` feature).
pub fn counter_value(counter: Counter) -> u64 {
    #[cfg(feature = "trace")]
    {
        COUNTERS[counter as usize].load(Ordering::Relaxed)
    }
    #[cfg(not(feature = "trace"))]
    {
        let _ = counter;
        0
    }
}

/// Snapshot of every counter as `(name, value)` pairs (all zero without
/// the `trace` feature).
pub fn counters() -> Vec<(&'static str, u64)> {
    Counter::ALL
        .iter()
        .map(|&c| {
            #[cfg(feature = "trace")]
            let v = COUNTERS[c as usize].load(Ordering::Relaxed);
            #[cfg(not(feature = "trace"))]
            let v = 0u64;
            (c.name(), v)
        })
        .collect()
}

/// Registered span names in id order (empty without the `trace` feature).
pub fn span_names() -> Vec<String> {
    #[cfg(feature = "trace")]
    {
        REGISTRY
            .lock()
            .expect("trace registry lock poisoned")
            .iter()
            .map(|s| s.name.clone())
            .collect()
    }
    #[cfg(not(feature = "trace"))]
    {
        Vec::new()
    }
}

/// Chronological snapshot of the span-event ring (oldest events are lost
/// once the ring wraps).
pub fn span_events() -> Vec<SpanEvent> {
    #[cfg(feature = "trace")]
    {
        RINGS
            .lock()
            .expect("trace rings lock poisoned")
            .as_ref()
            .map(|r| r.events.snapshot())
            .unwrap_or_default()
    }
    #[cfg(not(feature = "trace"))]
    {
        Vec::new()
    }
}

/// Chronological snapshot of the frame-event ring.
pub fn frame_events() -> Vec<FrameEvent> {
    #[cfg(feature = "trace")]
    {
        RINGS
            .lock()
            .expect("trace rings lock poisoned")
            .as_ref()
            .map(|r| r.frames.snapshot())
            .unwrap_or_default()
    }
    #[cfg(not(feature = "trace"))]
    {
        Vec::new()
    }
}

/// Histogram-backed summary of every registered span, in id order
/// (includes spans with zero samples so callers can rely on registration
/// order). Empty without the `trace` feature.
pub fn summary() -> Vec<SpanSummary> {
    #[cfg(feature = "trace")]
    {
        REGISTRY
            .lock()
            .expect("trace registry lock poisoned")
            .iter()
            .map(|info| SpanSummary {
                name: info.name.clone(),
                count: info.hist.count(),
                p50_ns: info.hist.quantile(0.5),
                p95_ns: info.hist.quantile(0.95),
                p99_ns: info.hist.quantile(0.99),
                max_ns: info.hist.max(),
                total_ns: info.total_ns,
                bytes: info.bytes,
            })
            .collect()
    }
    #[cfg(not(feature = "trace"))]
    {
        Vec::new()
    }
}

/// Clears recorded events, histograms, and counters. Registered span ids
/// and names stay valid (compiled programs hold them).
pub fn reset() {
    #[cfg(feature = "trace")]
    {
        for info in REGISTRY
            .lock()
            .expect("trace registry lock poisoned")
            .iter_mut()
        {
            info.hist.clear();
            info.total_ns = 0;
            info.bytes = 0;
        }
        if let Some(rings) = RINGS.lock().expect("trace rings lock poisoned").as_mut() {
            rings.events.clear();
            rings.frames.clear();
        }
        for c in &COUNTERS {
            c.store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(all(test, feature = "trace"))]
mod tests {
    use super::*;

    /// The recorder is process-global; recording tests serialize through
    /// this lock and reset around themselves.
    static TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn spans_record_into_histogram_and_ring() {
        let _guard = TEST_LOCK.lock().unwrap();
        install(TraceConfig::default());
        reset();
        enable();
        let id = register_span("test/spans_record");
        for _ in 0..10 {
            let t0 = start();
            std::hint::black_box(0u64);
            let dur = finish(id, t0, 128);
            assert!(dur < 1_000_000_000, "implausible span duration");
        }
        disable();

        let s = &summary()[id.index()];
        assert_eq!(s.name, "test/spans_record");
        assert_eq!(s.count, 10);
        assert_eq!(s.bytes, 1280);
        assert!(s.p50_ns <= s.p99_ns && s.p99_ns <= s.max_ns);

        let evs: Vec<SpanEvent> = span_events()
            .into_iter()
            .filter(|e| e.span == id.0)
            .collect();
        assert_eq!(evs.len(), 10);
        assert!(evs.windows(2).all(|w| w[0].start_ns <= w[1].start_ns));
        reset();
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let _guard = TEST_LOCK.lock().unwrap();
        install(TraceConfig::default());
        reset();
        disable();
        let id = register_span("test/disabled");
        let t0 = start();
        assert_eq!(t0, u64::MAX);
        assert_eq!(finish(id, t0, 1), 0);
        counter_add(Counter::PoolRegions, 5);
        record_frame(FrameEvent::default());
        assert_eq!(summary()[id.index()].count, 0);
        assert!(counters().iter().all(|&(_, v)| v == 0));
        assert!(frame_events().is_empty());
    }

    #[test]
    fn frame_ring_overwrites_oldest_when_full() {
        let _guard = TEST_LOCK.lock().unwrap();
        // Rings may already be installed at default capacity by another
        // test; exercise wrap-around via the Ring type directly.
        let mut ring: Ring<FrameEvent> = Ring::with_capacity(4);
        for i in 0..6u64 {
            ring.push(FrameEvent {
                frame: i,
                ..FrameEvent::default()
            });
        }
        let frames: Vec<u64> = ring.snapshot().iter().map(|e| e.frame).collect();
        assert_eq!(frames, vec![2, 3, 4, 5]);
    }

    #[test]
    fn counters_accumulate_when_enabled() {
        let _guard = TEST_LOCK.lock().unwrap();
        install(TraceConfig::default());
        reset();
        enable();
        counter_add(Counter::PoolWorkerSpawns, 3);
        counter_add(Counter::PoolWorkerSpawns, 2);
        disable();
        let got = counters()
            .into_iter()
            .find(|&(name, _)| name == "pool.worker_spawns")
            .unwrap();
        assert_eq!(got.1, 5);
        reset();
    }

    #[test]
    fn counter_max_keeps_the_high_water_mark() {
        let _guard = TEST_LOCK.lock().unwrap();
        install(TraceConfig::default());
        reset();
        enable();
        counter_max(Counter::ServeQueueDepthPeak, 3);
        counter_max(Counter::ServeQueueDepthPeak, 7);
        counter_max(Counter::ServeQueueDepthPeak, 5);
        disable();
        assert_eq!(counter_value(Counter::ServeQueueDepthPeak), 7);
        let got = counters()
            .into_iter()
            .find(|&(name, _)| name == "serve.queue_depth_peak")
            .unwrap();
        assert_eq!(got.1, 7);
        reset();
    }

    #[test]
    fn reset_keeps_span_ids_valid() {
        let _guard = TEST_LOCK.lock().unwrap();
        install(TraceConfig::default());
        let id = register_span("test/reset_keeps");
        reset();
        enable();
        let t0 = start();
        finish(id, t0, 0);
        disable();
        assert_eq!(summary()[id.index()].count, 1);
        reset();
    }
}
