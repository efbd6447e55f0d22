//! End-to-end and per-layer benchmark of the actively-dynamic-networks
//! workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <wreath_line|star_bulk|dst_sweep|async_seeded|all> \
//!     --seed <u64> --seconds <n> --trace <0|1>
//! ```
//!
//! Every input derives from `--seed`; the program receives only the
//! generated inputs. With `--trace 0` the run generates its inputs
//! several times (the median is `setup_s`), runs passes over the
//! workload's units for `--seconds` seconds with tracing off, checks every
//! output outside the timed region and prints the end-to-end metrics.
//! With `--trace 1` it runs the units once more under spans around each
//! layer's public functions, replays the recorded event streams layer by
//! layer, prints the per-layer metrics and writes the spans to
//! `perfbench/out/`. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. `--workload all` runs
//! each workload in a process of its own and prints one line per workload.

mod checks;
mod metrics;
mod replay;
mod report;
mod spans;
mod sweep;
mod units;

use metrics::{end_to_end, per_layer, ratio, Values};
use report::{median, peak_rss_mb, Report};
use spans::Tracer;
use std::time::Instant;

pub const WORKLOADS: [&str; 4] = ["wreath_line", "star_bulk", "dst_sweep", "async_seeded"];

/// Input sizes. `full` is the benchmark; `small` serves the self-tests.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub wreath_n: usize,
    pub star_n: usize,
    pub dst_batches: usize,
    pub dst_batch: usize,
    pub async_n: usize,
    pub flood_n: usize,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        wreath_n: 32768,
        star_n: 65536,
        dst_batches: 8,
        dst_batch: 1024,
        async_n: 2048,
        flood_n: 512,
    };

    pub const SMALL: Sizes = Sizes {
        wreath_n: 256,
        star_n: 512,
        dst_batches: 2,
        dst_batch: 24,
        async_n: 64,
        flood_n: 32,
    };
}

/// SplitMix64 of `seed` and a stream tag: every input seed of a workload
/// derives from the one workload seed through this.
pub fn derive(seed: u64, stream: u64) -> u64 {
    let mut z = seed.wrapping_add(stream.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

enum Inputs {
    Units(units::Inputs),
    Sweep(sweep::Inputs),
}

fn setup(workload: &str, seed: u64, sizes: &Sizes, tr: &mut Tracer) -> Inputs {
    match workload {
        "wreath_line" => Inputs::Units(units::setup_wreath_line(seed, sizes, tr)),
        "star_bulk" => Inputs::Units(units::setup_star_bulk(seed, sizes, tr)),
        "async_seeded" => Inputs::Units(units::setup_async_seeded(seed, sizes, tr)),
        "dst_sweep" => Inputs::Sweep(sweep::setup(seed, sizes, tr)),
        other => panic!("unknown workload `{other}`"),
    }
}

/// Set-up time: inputs are generated at least three times and until a
/// second has been spent; the median is reported and the last generation
/// is kept. Small set-ups repeat thousands of times, so their median is
/// taken on a warm process rather than in its first milliseconds.
fn timed_setup(workload: &str, seed: u64, sizes: &Sizes) -> (Inputs, f64) {
    let mut times = Vec::new();
    let mut previous = None;
    let started = Instant::now();
    loop {
        let t = Instant::now();
        let inputs = setup(workload, seed, sizes, &mut Tracer::off());
        times.push(t.elapsed().as_secs_f64());
        let spent = started.elapsed().as_secs_f64();
        if times.len() >= 3 && spent >= 1.0 {
            return (inputs, median(&times));
        }
        // Free the generation before this one only now, outside the timed
        // region, so the allocator never hands its pages back to the
        // system between generations.
        drop(previous.replace(inputs));
    }
}

/// One untraced run: set-up, measured phase, checks, end-to-end metrics.
pub fn run_untraced(workload: &str, seed: u64, seconds: f64, sizes: &Sizes) -> Report {
    let mut report = Report::default();
    let mut v = Values::default();
    let (inputs, setup_s) = timed_setup(workload, seed, sizes);
    v.set("setup_s", setup_s);
    match &inputs {
        Inputs::Units(inp) => {
            let m = units::measure(inp, seconds, &mut report);
            units::check(inp, &m.outcomes, &mut report);
            units::end_to_end(inp, &m, &mut v, &mut report);
        }
        Inputs::Sweep(inp) => {
            let m = sweep::measure(inp, seconds, &mut report);
            let runs = sweep::check(inp, &m, &mut report);
            sweep::end_to_end(inp, &m, &runs, &mut v, &mut report);
        }
    }
    v.set("peak_rss_mb", peak_rss_mb());
    v.emit(&end_to_end(), &mut report);
    report
}

/// Per-layer metrics derived from the spans, on top of the counts the
/// workload recorded.
fn layer_times(tr: &Tracer, v: &mut Values) {
    let t = tr.totals();
    let s = |name: &str| t.get(name).map_or(0.0, |x| x.total_s);
    v.set("graph.generate_s", s("graph.generate"));
    v.set(
        "graph.edit_ns",
        ratio(s("graph.edit_replay") * 1e9, v.get("graph.edits")),
    );
    let stage = s("sim.stage_jump_wave");
    let commit = s("sim.commit_round") + s("sim.advance_idle_rounds");
    v.set("sim.stage_s", stage);
    v.set("sim.commit_s", commit);
    v.set(
        "sim.commit_ns_per_round",
        ratio(s("sim.commit_round") * 1e9, v.get("sim.rounds_committed")),
    );
    v.set(
        "sim.ns_per_activation",
        ratio((stage + commit) * 1e9, v.get("sim.activations")),
    );
    let transform = s("core.execute");
    v.set("core.transform_s", transform);
    v.set("core.self_s", transform - stage - commit);
    v.set("sim.share", ratio(stage + commit, transform));
    let armed = s("dst.arm")
        + s("dst.stage_jump_wave")
        + s("dst.commit_round")
        + s("dst.advance_idle_rounds");
    let check = armed - stage - commit;
    v.set("dst.check_s", check);
    v.set(
        "dst.check_us_per_round",
        ratio(check * 1e6, v.get("dst.replay_rounds")),
    );
    v.set("committee.select_s", s("committee.select"));
    v.set("committee.retire_s", s("committee.retire"));
    v.set("stress.derive_s", s("stress.derive"));
    v.set("stress.render_s", s("stress.render"));
}

/// The traced run: per-layer metrics, spans written to `out_dir`.
pub fn run_traced(
    workload: &str,
    seed: u64,
    sizes: &Sizes,
    out_dir: Option<&std::path::Path>,
) -> Report {
    let mut report = Report::default();
    let mut v = Values::default();
    let mut tr = Tracer::on();
    let inputs = setup(workload, seed, sizes, &mut tr);
    match &inputs {
        Inputs::Units(inp) => units::traced(inp, &mut tr, &mut v, &mut report),
        Inputs::Sweep(inp) => sweep::traced(inp, &mut tr, &mut v, &mut report),
    }
    layer_times(&tr, &mut v);
    v.emit(&per_layer(), &mut report);
    if let Some(dir) = out_dir {
        let mut header = format!(
            "# {}\n# workload={workload} seed={seed}\n",
            report::host_facts()
        );
        for (name, t) in tr.totals() {
            header.push_str(&format!(
                "# total {name} count={} total_s={} self_s={}\n",
                t.count, t.total_s, t.self_s
            ));
        }
        let path = dir.join(format!("spans-{workload}-seed{seed}.tsv"));
        let written = std::fs::create_dir_all(dir)
            .and_then(|_| std::fs::write(&path, tr.render_tsv(&header)));
        match written {
            Ok(()) => report
                .notes
                .push(format!("spans written to {}", path.display())),
            Err(e) => report.fail("trace", format!("cannot write {}: {e}", path.display())),
        }
    }
    report
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|_| format!("bad seconds `{value}`"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace `{value}` (0 or 1)")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn print_report(report: &Report) {
    for note in &report.notes {
        println!("# {note}");
    }
    for m in &report.metrics {
        println!("{:<36} {:>20} {}", m.name, m.value, m.unit);
    }
    for f in &report.failures {
        println!("FAILED {f}");
    }
    println!("{}", report.to_json());
}

/// `--workload all`: one child process per workload (so peak memory and
/// warm caches do not leak between workloads); prints each child's output
/// and exits non-zero if any child failed.
fn run_all(args: &Args) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("cannot locate the benchmark executable: {e}");
            return 2;
        }
    };
    let mut code = 0;
    for w in WORKLOADS {
        println!("## workload {w}");
        let status = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        if !matches!(status, Ok(s) if s.success()) {
            code = 1;
        }
    }
    code
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.workload == "all" {
        std::process::exit(run_all(&args));
    }
    println!("# {}", report::host_facts());
    println!(
        "# workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let report = if args.trace {
        let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        run_traced(&args.workload, args.seed, &Sizes::FULL, Some(&out))
    } else {
        run_untraced(&args.workload, args.seed, args.seconds, &Sizes::FULL)
    };
    print_report(&report);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(report: &Report) -> Vec<(String, &'static str)> {
        report
            .metrics
            .iter()
            .map(|m| (m.name.clone(), m.unit))
            .collect()
    }

    #[test]
    fn every_workload_emits_every_end_to_end_metric_at_small_n() {
        for w in WORKLOADS {
            let r = run_untraced(w, 7, 0.0, &Sizes::SMALL);
            assert_eq!(names(&r), end_to_end(), "{w}");
            assert!(r.failures.is_empty(), "{w}: {:?}", r.failures);
            assert!(r.attempted > 0, "{w}");
            for m in &r.metrics {
                assert!(
                    m.value.is_finite() && m.value > 0.0,
                    "{w}: {} = {}",
                    m.name,
                    m.value
                );
            }
            let json = r.to_json();
            assert!(
                json.starts_with("{\"correct\": true, \"attempted\": "),
                "{json}"
            );
        }
    }

    #[test]
    fn every_workload_emits_every_per_layer_metric_at_small_n() {
        for w in WORKLOADS {
            let r = run_traced(w, 7, &Sizes::SMALL, None);
            assert_eq!(names(&r), per_layer(), "{w}");
            assert!(r.failures.is_empty(), "{w}: {:?}", r.failures);
            for m in &r.metrics {
                assert!(m.value.is_finite(), "{w}: {} = {}", m.name, m.value);
            }
            let get = |n: &str| r.metric(n).unwrap();
            assert!(get("graph.generate_s") > 0.0, "{w}");
            assert!(get("core.transform_s") > 0.0, "{w}");
            assert!(get("trace.overhead") > 0.0, "{w}");
        }
    }

    #[test]
    fn benchmark_json_lists_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let listed = json.matches("\"name\": ").count();
        let catalogue: Vec<_> = end_to_end().into_iter().chain(per_layer()).collect();
        for (name, unit) in &catalogue {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(listed, catalogue.len() + WORKLOADS.len());
        for w in WORKLOADS {
            assert!(
                json.contains(&format!("{{\"name\": \"{w}\", \"why\": ")),
                "{w}"
            );
        }
    }

    #[test]
    fn inputs_follow_the_seed() {
        let a = setup("star_bulk", 3, &Sizes::SMALL, &mut Tracer::off());
        let b = setup("star_bulk", 3, &Sizes::SMALL, &mut Tracer::off());
        let c = setup("star_bulk", 4, &Sizes::SMALL, &mut Tracer::off());
        let (Inputs::Units(a), Inputs::Units(b), Inputs::Units(c)) = (a, b, c) else {
            panic!("star_bulk has algorithm units");
        };
        assert!(a.graphs == b.graphs);
        assert!(a.units.iter().zip(&b.units).all(|(x, y)| x.uids == y.uids));
        assert!(a.units.iter().zip(&c.units).any(|(x, y)| x.uids != y.uids));
    }
}
