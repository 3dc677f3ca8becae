//! Benchmark regression diff: fresh `BENCH_*.json` vs committed baseline.
//!
//! Benchmarks that only ever *overwrite* their JSON output silently absorb
//! regressions: the new numbers become the new normal at the next commit.
//! This tool makes the delta visible. It parses two benchmark JSON files
//! with a small hand-rolled parser (the workspace deliberately has no JSON
//! dependency), flattens every numeric leaf to a `path = value` entry,
//! and prints a per-entry delta table.
//!
//! Direction is inferred from the leaf name: `*_ns` and `alloc*` entries
//! are "lower is better", `*mac_per_s*` and `*speedup*` are "higher is
//! better", everything else is neutral (reported, never flagged). Entries
//! that moved more than 10% in the bad direction are flagged with `WARN`.
//!
//! By default the exit code is always 0: machine-to-machine variance
//! makes a hard gate on micro-benchmarks a flaky gate, so the contract
//! is *warn, don't fail*. With `--strict` the contract flips — any
//! flagged regression exits 1, which is what `ci.sh` runs on the
//! reference box where baseline and fresh numbers come from the same
//! machine and the benchmarks report best-of-N times.
//!
//! Usage:
//! `bench_compare [--strict] <baseline.json> <fresh.json> [<baseline2> <fresh2> ...]`

use std::collections::BTreeMap;

/// The subset of JSON this tool understands — everything the BENCH_*
/// emitters produce.
#[derive(Debug, Clone)]
enum Json {
    Num(f64),
    Str(String),
    Bool(bool),
    Null,
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".into()),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        self.skip_ws();
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    // The emitters never escape anything beyond this set.
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(&c) => out.push(c as char),
                        None => return Err("truncated escape".into()),
                    }
                    self.pos += 1;
                }
                Some(&c) => {
                    out.push(c as char);
                    self.pos += 1;
                }
                None => return Err("unterminated string".into()),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("bad array at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            fields.push((key, self.value()?));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("bad object at byte {}", self.pos)),
            }
        }
    }
}

fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser::new(text);
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing bytes at {}", p.pos));
    }
    Ok(v)
}

/// A human-readable segment for an array element: prefer an identifying
/// field (`shape`, `model`, `name`, `threads`) over a bare index.
fn element_label(v: &Json, index: usize) -> String {
    if let Json::Obj(fields) = v {
        for key in ["shape", "model", "name", "label", "threads"] {
            if let Some((_, val)) = fields.iter().find(|(k, _)| k == key) {
                match val {
                    Json::Str(s) => return s.clone(),
                    Json::Num(n) => return format!("{key}{n}"),
                    _ => {}
                }
            }
        }
    }
    format!("[{index}]")
}

/// Flattens every numeric leaf to `path -> value`. Booleans flatten to
/// 0/1 so flag flips (e.g. single-CPU skip markers) show up in the diff.
fn flatten(v: &Json, prefix: &str, out: &mut BTreeMap<String, f64>) {
    match v {
        Json::Num(n) => {
            out.insert(prefix.to_string(), *n);
        }
        Json::Bool(b) => {
            out.insert(prefix.to_string(), *b as u8 as f64);
        }
        Json::Obj(fields) => {
            for (k, val) in fields {
                let path = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}/{k}")
                };
                flatten(val, &path, out);
            }
        }
        Json::Arr(items) => {
            for (i, item) in items.iter().enumerate() {
                let path = format!("{prefix}/{}", element_label(item, i));
                flatten(item, &path, out);
            }
        }
        Json::Str(_) | Json::Null => {}
    }
}

/// Which direction is a *regression* for this entry, by leaf name.
#[derive(PartialEq)]
enum Direction {
    LowerIsBetter,
    HigherIsBetter,
    Neutral,
}

fn direction(path: &str) -> Direction {
    let leaf = path.rsplit('/').next().unwrap_or(path);
    if leaf.ends_with("_ns") || leaf == "ns" || leaf.contains("alloc") || leaf.contains("bytes") {
        Direction::LowerIsBetter
    } else if leaf.contains("mac_per_s") || leaf.contains("speedup") || leaf.contains("fps") {
        Direction::HigherIsBetter
    } else {
        Direction::Neutral
    }
}

const REGRESSION_THRESHOLD: f64 = 0.10;

/// One flagged entry, kept so the final warning can say *which* metric
/// regressed and by how much — a bare count forces the reader to scroll
/// back through the full delta table to find the offender.
struct Regression {
    path: String,
    baseline: f64,
    fresh: f64,
    delta: f64,
}

fn compare_pair(baseline_path: &str, fresh_path: &str) -> Result<Vec<Regression>, String> {
    let base_text =
        std::fs::read_to_string(baseline_path).map_err(|e| format!("{baseline_path}: {e}"))?;
    let fresh_text =
        std::fs::read_to_string(fresh_path).map_err(|e| format!("{fresh_path}: {e}"))?;
    let mut base = BTreeMap::new();
    let mut fresh = BTreeMap::new();
    flatten(&parse(&base_text)?, "", &mut base);
    flatten(&parse(&fresh_text)?, "", &mut fresh);

    println!("== {baseline_path} -> {fresh_path}");
    println!(
        "{:<64} {:>14} {:>14} {:>9}",
        "entry", "baseline", "fresh", "delta"
    );
    let mut regressions = Vec::new();
    for (path, &b) in &base {
        let Some(&f) = fresh.get(path) else {
            println!("{path:<64} {b:>14.1} {:>14} {:>9}", "(gone)", "-");
            continue;
        };
        let delta = if b != 0.0 { (f - b) / b } else { 0.0 };
        let bad = match direction(path) {
            Direction::LowerIsBetter => delta > REGRESSION_THRESHOLD,
            Direction::HigherIsBetter => delta < -REGRESSION_THRESHOLD,
            Direction::Neutral => false,
        };
        let flag = if bad { "  WARN regression" } else { "" };
        println!(
            "{path:<64} {b:>14.1} {f:>14.1} {:>+8.1}%{flag}",
            delta * 100.0
        );
        if bad {
            regressions.push(Regression {
                path: path.clone(),
                baseline: b,
                fresh: f,
                delta,
            });
        }
    }
    for path in fresh.keys().filter(|p| !base.contains_key(*p)) {
        println!("{path:<64} {:>14} {:>14.1}", "(new)", fresh[path]);
    }
    Ok(regressions)
}

fn main() {
    let mut strict = false;
    let args: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| {
            if a == "--strict" {
                strict = true;
                false
            } else {
                true
            }
        })
        .collect();
    if args.is_empty() || !args.len().is_multiple_of(2) {
        eprintln!(
            "usage: bench_compare [--strict] <baseline.json> <fresh.json> \
             [<baseline2> <fresh2> ...]"
        );
        std::process::exit(2);
    }
    let mut regressions = Vec::new();
    for pair in args.chunks(2) {
        match compare_pair(&pair[0], &pair[1]) {
            Ok(mut r) => regressions.append(&mut r),
            Err(e) => eprintln!("[bench_compare] skipping pair: {e}"),
        }
        println!();
    }
    if !regressions.is_empty() {
        eprintln!(
            "[bench_compare] {} entr{} regressed by more than {:.0}%:",
            regressions.len(),
            if regressions.len() == 1 { "y" } else { "ies" },
            REGRESSION_THRESHOLD * 100.0
        );
        for r in &regressions {
            eprintln!(
                "[bench_compare]   {}: {:.1} -> {:.1} ({:+.1}%)",
                r.path,
                r.baseline,
                r.fresh,
                r.delta * 100.0
            );
        }
        if strict {
            eprintln!("[bench_compare] --strict: failing the run");
            std::process::exit(1);
        }
        eprintln!(
            "[bench_compare] warning only — micro-benchmarks vary across machines; exit stays 0"
        );
    } else {
        eprintln!(
            "[bench_compare] no regressions beyond {:.0}%",
            REGRESSION_THRESHOLD * 100.0
        );
    }
}
