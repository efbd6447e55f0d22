//! Result assembly: named metrics with units, the failure tally, summary
//! statistics and the host facts printed next to every result.

use std::fmt::Write as _;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one workload run reports.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Units (algorithm runs or stress cases) whose outputs were checked.
    pub attempted: usize,
    /// Check failures, one line each (`unit: reason`).
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Extra human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Report {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Records a failed check for `unit`.
    pub fn fail(&mut self, unit: &str, reason: impl AsRef<str>) {
        self.failures.push(format!("{unit}: {}", reason.as_ref()));
    }

    /// Distinct units with at least one failed check.
    pub fn failed_units(&self) -> usize {
        let mut units: Vec<&str> = self
            .failures
            .iter()
            .map(|f| f.split(": ").next().unwrap_or(""))
            .collect();
        units.sort_unstable();
        units.dedup();
        units.len()
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The single-line JSON result object.
    pub fn to_json(&self) -> String {
        let failed = self.failed_units();
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives; non-finite values (a bug upstream) become `null`.
fn json_number(v: f64) -> String {
    if !v.is_finite() {
        return "null".to_string();
    }
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}

/// Median of `values` (mean of the two middle values for even lengths).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]`; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Per-unit medians of samples recorded pass by pass (`units` samples a
/// pass, in unit order): a burst of machine noise during one pass moves no
/// unit's median.
pub fn per_unit_medians(samples: &[f64], units: usize) -> Vec<f64> {
    (0..units)
        .map(|u| {
            let runs: Vec<f64> = samples.iter().skip(u).step_by(units).copied().collect();
            median(&runs)
        })
        .collect()
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0 where the
/// proc file system is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host facts recorded beside every result, so numbers from different
/// machines are never compared: core count, CPU model, compiler and
/// source commit (when the checkout is a git repository).
pub fn host_facts() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    let commit = command_line("git", &["rev-parse", "--short=12", "HEAD"])
        .unwrap_or_else(|| "unknown (not a git checkout)".into());
    format!("host nproc={nproc} cpu=\"{cpu}\" rustc=\"{rustc}\" commit=\"{commit}\"")
}

/// First line of a command's standard output, or `None` when it cannot
/// run or fails. The child is waited for before returning.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    String::from_utf8(out.stdout)
        .ok()?
        .lines()
        .next()
        .map(|l| l.trim().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
        let by_unit = per_unit_medians(&[1.0, 10.0, 3.0, 30.0, 2.0, 20.0], 2);
        assert_eq!(by_unit, vec![2.0, 20.0]);
    }

    #[test]
    fn json_has_the_contract_keys() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.push("wall_s", 1.25, "s");
        r.push("rounds", 7.0, "count");
        r.fail("u1", "broken");
        r.fail("u1", "also broken");
        let j = r.to_json();
        assert_eq!(
            j,
            "{\"correct\": false, \"attempted\": 3, \"failed\": 1, \"metrics\": \
             {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"rounds\": {\"value\": 7.0, \"unit\": \"count\"}}}"
        );
    }
}
