//! Host state written into every result, so a noisy run can be
//! recognised after the fact: CPU count, kernel ISA, the `NP_*`
//! overrides, the CPU model, load average and the code version.

use np_tensor::parallel::{cpus_available, Pool};

/// Everything recorded about the host for one run.
#[derive(Debug, Clone)]
pub struct Host {
    /// `(key, JSON value)` pairs in output order.
    pub fields: Vec<(&'static str, String)>,
}

/// `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let escaped: String = s
        .chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect();
    format!("\"{escaped}\"")
}

fn env_json(key: &str) -> String {
    std::env::var(key).map_or_else(|_| "null".to_string(), |v| json_str(&v))
}

/// The `/proc/loadavg` 1-minute figure (`null` where unavailable).
pub fn load_avg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().map(str::to_string))
        .unwrap_or_else(|| "null".to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

impl Host {
    /// Captures the host state at the start of a run.
    pub fn capture(pool: Pool) -> Self {
        Host {
            fields: vec![
                ("nproc", nproc().to_string()),
                ("cpus_available", cpus_available().to_string()),
                ("pool_threads", pool.threads().to_string()),
                ("kernel_isa", json_str(np_quant::kernel_isa().as_str())),
                ("NP_THREADS", env_json("NP_THREADS")),
                ("NP_ISA", env_json("NP_ISA")),
                ("NP_CALIB", env_json("NP_CALIB")),
                ("cpu_model", json_str(&cpu_model())),
                ("load_avg_start", load_avg()),
                ("commit", env_json("PERFBENCH_COMMIT")),
            ],
        }
    }

    /// Adds the load average at the end of the run.
    pub fn finish(&mut self) {
        self.fields.push(("load_avg_end", load_avg()));
    }

    /// The fields as a JSON object.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_json_is_an_object_with_the_promised_keys() {
        let mut h = Host::capture(Pool::serial());
        h.finish();
        let j = h.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        for key in [
            "nproc",
            "cpus_available",
            "kernel_isa",
            "NP_THREADS",
            "NP_ISA",
            "NP_CALIB",
            "cpu_model",
            "load_avg_start",
            "load_avg_end",
            "commit",
        ] {
            assert!(
                j.contains(&format!("\"{key}\": ")),
                "{key} missing from {j}"
            );
        }
        assert_eq!(json_str("a\"b\\c"), "\"a\\\"b\\\\c\"");
    }
}
