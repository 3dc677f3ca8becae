//! End-to-end and per-layer benchmark of the adaptive pose runtime.
//!
//! ```text
//! perfbench --workload <drone-d1|fleet-d2-open|fleet-d2-drain> --seed <n> \
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Builds the workload's programs and inputs from `--seed` (set-up is
//! repeated and timed), checks every output bit for bit against an
//! isolated `FrameRunner`, measures for `--seconds`, and prints one JSON
//! result line last. `--trace 0` reports the end-to-end metrics; `--trace
//! 1` (the `trace` build) reports the per-layer metrics. A detailed
//! report, and in a traced run the benchmark's span log, are written
//! under `.perfbench/` in the working directory.

mod drone;
mod fleet;
mod host;
mod params;
mod probes;
mod report;
mod runner;
mod setup;
mod spans;
mod stats;

use host::Host;
use np_tensor::parallel::Pool;
use report::{json_num, Metrics};
use spans::{Clock, Spans};
use stats::Summary;
use std::fmt::Write as _;
use std::process::ExitCode;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["drone-d1", "fleet-d2-open", "fleet-d2-drain"];

/// Directory (relative to the working directory) of the run reports.
const OUT_DIR: &str = ".perfbench";

/// Command-line arguments.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(WORKLOADS.into_iter().find(|w| w == value).ok_or_else(|| {
                    format!("unknown workload {value} (one of {})", WORKLOADS.join(", "))
                })?)
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed {value}: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {value}: expected (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        traced: traced.ok_or("missing --trace")?,
    })
}

/// State shared by every workload: the run's knobs, its clock and span
/// log, and everything it reports.
pub struct Ctx {
    /// The `--seed`.
    pub seed: u64,
    /// Measurement time, s.
    pub seconds: f64,
    /// A traced run.
    pub traced: bool,
    /// The worker pool ([`params::POOL_THREADS`] workers).
    pub pool: Pool,
    /// The run's clock.
    pub clock: Clock,
    /// The benchmark's span log.
    pub spans: Spans,
    /// End-to-end metrics.
    pub e2e: Metrics,
    /// Per-layer metrics.
    pub layers: Metrics,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or produced a wrong output.
    pub failed: u64,
    detail: Vec<(String, String)>,
    notes: Vec<String>,
    workload: &'static str,
}

impl Ctx {
    /// Switches np-trace recording and the span log on or off, clearing
    /// np-trace's counters and spans.
    pub fn set_tracing(&mut self, on: bool) {
        np_trace::reset();
        if on {
            np_trace::enable();
        } else {
            np_trace::disable();
        }
        self.spans.set_enabled(on);
    }

    /// Runs `setup` [`params::SETUP_REPS`] times, reports the median as
    /// `setup_s`, and keeps the last result.
    fn timed_setup<T>(&mut self, setup: impl Fn(&Ctx) -> T) -> T {
        let mut state = None;
        let mut times = Vec::with_capacity(params::SETUP_REPS);
        for _ in 0..params::SETUP_REPS {
            drop(state.take());
            let t0 = self.clock.now();
            let s = setup(self);
            times.push((self.clock.now() - t0) as f64 / 1e9);
            state = Some(s);
        }
        let samples: Vec<String> = times.iter().map(|t| json_num(*t)).collect();
        self.detail_raw("setup_samples_s", &format!("[{}]", samples.join(", ")));
        self.e2e.put("setup_s", stats::median(&mut times), "s");
        state.expect("at least one set-up")
    }

    /// Reports a latency summary as the end-to-end latency metrics: the
    /// median and p95 (p99 does not repeat within a tenth on a shared
    /// host at the run length; it is in the report file).
    pub fn put_latency(&mut self, s: Summary) {
        if s.tail_q < 0.95 {
            self.note(&format!(
                "latency_p95_us has fewer than ten samples beyond it ({} samples)",
                s.n
            ));
        }
        self.e2e.put("latency_p50_us", s.p50, "us");
        self.e2e.put("latency_p95_us", s.p95, "us");
        self.detail_num("latency_samples", s.n as f64);
        self.detail_num("latency_tail_q", s.tail_q);
        self.detail_num("latency_tail_us", s.tail);
    }

    /// Checks the escalation count against the count frozen for this
    /// seed (when one is), and records it.
    pub fn check_frac_big(&mut self, big: u64, frames: u64) {
        let frozen = params::FROZEN_BIG_FRAMES
            .iter()
            .find(|(w, s, _)| *w == self.workload && *s == self.seed)
            .map(|&(_, _, n)| n);
        let ok = frozen.is_none_or(|n| n == big);
        self.detail_raw(
            "frac_big_check",
            &format!(
                "{{\"big_frames\": {big}, \"frames\": {frames}, \"frozen_big_frames\": {}, \
                 \"ok\": {ok}}}",
                frozen.map_or("null".to_string(), |n| n.to_string())
            ),
        );
        if !ok {
            self.failed += 1;
            self.note(&format!(
                "escalations changed: {big} of {frames} frames, frozen {}",
                frozen.unwrap_or(0)
            ));
        }
    }

    /// Adds a numeric field to the detailed report.
    pub fn detail_num(&mut self, key: &str, v: f64) {
        self.detail_raw(key, &json_num(v));
    }

    /// Adds a string field to the detailed report.
    pub fn detail_str(&mut self, key: &str, v: &str) {
        self.detail_raw(key, &host::json_str(v));
    }

    /// Adds a raw JSON field to the detailed report.
    pub fn detail_raw(&mut self, key: &str, json: &str) {
        self.detail.push((key.to_string(), json.to_string()));
    }

    /// Records a note for the report and standard error.
    pub fn note(&mut self, msg: &str) {
        eprintln!("[perfbench] {msg}");
        self.notes.push(msg.to_string());
    }
}

fn report_json(args: &Args, host: &Host, ctx: &Ctx, correct: bool) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"workload\": {},", host::json_str(args.workload));
    let _ = writeln!(out, "  \"seed\": {},", args.seed);
    let _ = writeln!(out, "  \"seconds\": {},", json_num(args.seconds));
    let _ = writeln!(out, "  \"traced\": {},", args.traced);
    let _ = writeln!(out, "  \"held_out_seed\": {},", params::HELD_OUT_SEED);
    let _ = writeln!(out, "  \"host\": {},", host.to_json());
    let _ = writeln!(out, "  \"correct\": {correct},");
    let _ = writeln!(out, "  \"attempted\": {},", ctx.attempted);
    let _ = writeln!(out, "  \"failed\": {},", ctx.failed);
    let _ = writeln!(out, "  \"end_to_end\": {},", ctx.e2e.to_json());
    let _ = writeln!(out, "  \"per_layer\": {},", ctx.layers.to_json());
    for (k, v) in &ctx.detail {
        let _ = writeln!(out, "  {}: {v},", host::json_str(k));
    }
    let notes: Vec<String> = ctx.notes.iter().map(|n| host::json_str(n)).collect();
    let _ = writeln!(out, "  \"spans_dropped\": {},", ctx.spans.dropped());
    let _ = writeln!(out, "  \"notes\": [{}]", notes.join(", "));
    out.push_str("}\n");
    out
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> \
                 --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if args.traced && !cfg!(feature = "trace") {
        eprintln!("perfbench: --trace 1 needs the `trace` build (cargo build --features trace)");
        return ExitCode::from(2);
    }
    let pool = Pool::new(params::POOL_THREADS);
    let mut host = Host::capture(pool);
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        pool,
        clock: Clock::new(),
        spans: Spans::new(),
        e2e: Metrics::default(),
        layers: Metrics::default(),
        attempted: 0,
        failed: 0,
        detail: Vec::new(),
        notes: Vec::new(),
        workload: args.workload,
    };
    if args.traced {
        np_trace::install(np_trace::TraceConfig::default());
    }
    match args.workload {
        "drone-d1" => {
            let st = ctx.timed_setup(drone::setup);
            ctx.set_tracing(args.traced);
            drone::run(&mut ctx, st);
        }
        "fleet-d2-open" => {
            let st = ctx.timed_setup(fleet::setup_open);
            ctx.set_tracing(args.traced);
            fleet::run_open(&mut ctx, st);
        }
        _ => {
            let st = ctx.timed_setup(fleet::setup_drain);
            ctx.set_tracing(args.traced);
            fleet::run_drain(&mut ctx, st);
        }
    }
    ctx.set_tracing(false);
    ctx.e2e.put("peak_rss_mb", host::peak_rss_mb(), "MB");
    host.finish();

    let metrics = if args.traced { &ctx.layers } else { &ctx.e2e };
    let bad: Vec<String> = metrics.non_finite().iter().map(|s| s.to_string()).collect();
    for name in &bad {
        ctx.note(&format!("metric {name} is not a finite number"));
    }
    let correct = ctx.failed == 0 && bad.is_empty();

    let stem = format!(
        "{OUT_DIR}/{}-seed{}-{}",
        args.workload,
        args.seed,
        if args.traced { "traced" } else { "plain" }
    );
    let written = std::fs::create_dir_all(OUT_DIR).and_then(|()| {
        std::fs::write(
            format!("{stem}.json"),
            report_json(&args, &host, &ctx, correct),
        )?;
        if args.traced {
            ctx.spans
                .write_jsonl(std::path::Path::new(&format!("{stem}.spans.jsonl")))?;
        }
        Ok(())
    });
    if let Err(e) = written {
        eprintln!("[perfbench] could not write {stem}.*: {e}");
    }
    let metrics = if args.traced { &ctx.layers } else { &ctx.e2e };
    println!(
        "{}",
        report::result_line(correct, ctx.attempted.max(1), ctx.failed, metrics)
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(&argv("--workload drone-d1 --seed 7 --seconds 10 --trace 1"))
            .expect("valid");
        assert_eq!(
            a,
            Args {
                workload: "drone-d1",
                seed: 7,
                seconds: 10.0,
                traced: true
            }
        );
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload drone-d1 --seed x --seconds 1 --trace 0",
            "--workload drone-d1 --seed 1 --seconds 0 --trace 0",
            "--workload drone-d1 --seed 1 --seconds 1 --trace 2",
            "--workload drone-d1 --seed 1 --seconds 1",
            "--workload drone-d1 --seed 1 --seconds 1 --trace",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
