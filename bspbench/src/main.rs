//! `bspbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! env MALLOC_ARENA_MAX=1 cargo run --release --offline --manifest-path bspbench/Cargo.toml -- \
//!     --workload apps|comm|stream --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. `--trace 0` prints the end-to-end
//! metrics, `--trace 1` the per-layer ones; the last line of standard
//! output is one JSON object. See `bspbench/README.md`.

mod bench;
mod jobs;
mod layers;
mod stats;
mod trace;

use bench::{cpu_ticks, rounds, Tally};
use green_bsp::Runtime;
use jobs::{build, procs, Sizes, Suite, Workload};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// Set-ups per end-to-end run: at least this many and this long in
/// total. `setup_s` is their median; the first set-ups of a process run
/// colder than the later ones, so cheap set-ups repeat until they settle.
const SETUPS: usize = 7;
const SETUP_SECONDS: f64 = 3.0;
/// Discarded warm-up: at least this long and this many rounds.
const WARM_SECONDS: f64 = 1.0;
const WARM_ROUNDS: usize = 3;
/// The p90 round time is taken per window of `samples_for_tail(TAIL_Q,
/// TAIL_BEYOND)` = 100 consecutive rounds, so ten samples lie beyond each
/// window's p90, and reported as the median over the windows. The timed
/// loop runs at least `TAIL_WINDOWS` windows of rounds.
const TAIL_Q: f64 = 0.9;
const TAIL_BEYOND: usize = 10;
const TAIL_WINDOWS: usize = 3;
/// `jobs_per_s` is the median over windows of consecutive rounds that
/// each span at least this much timed work.
const RATE_WINDOW_MS: f64 = 1000.0;
/// Hard stop for one loop of rounds, so a slow host cannot stretch a run
/// without bound.
const CAP_SECONDS: f64 = 100.0;
/// Where runs keep their scratch files and traces, under the working
/// directory.
const OUT_DIR: &str = ".bench_out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    sizes: Sizes,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&val).ok_or_else(|| format!("unknown workload {val}"))?)
            }
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = val.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must lie in (0, 60]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        sizes: Sizes::FULL,
    })
}

/// A metric as printed: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// A fresh per-run directory for spill files and the calibration cache,
/// removed when dropped, so no run sees an earlier run's disk state.
struct RunDir(PathBuf);

impl RunDir {
    fn new() -> std::io::Result<RunDir> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.subsec_nanos());
        let dir = Path::new(OUT_DIR).join(format!("run-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(RunDir(dir))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Build a workload and warm the runtime for every job shape it submits.
pub fn set_up(
    w: Workload,
    seed: u64,
    sz: &Sizes,
    dir: &Path,
    rt: &Runtime,
    tr: &Tracer,
) -> std::io::Result<Suite> {
    let suite = build(w, seed, sz, dir, rt, tr)?;
    tr.span(
        || "setup.prewarm".into(),
        || {
            for job in &suite.jobs {
                rt.prewarm(job.cfg());
            }
        },
    );
    Ok(suite)
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The untraced run: repeated set-ups, warm-up, then the timed loop.
fn end_to_end(a: &Args, dir: &Path) -> std::io::Result<(Vec<Metric>, Tally)> {
    let off = Tracer::new(false);
    let mut setup_s: Vec<f64> = Vec::new();
    let mut kept: Option<(Runtime, Suite, PathBuf)> = None;
    while setup_s.len() < SETUPS || setup_s.iter().sum::<f64>() < SETUP_SECONDS {
        let i = setup_s.len();
        if let Some((rt, suite, sub)) = kept.take() {
            drop(suite);
            rt.shutdown();
            std::fs::remove_dir_all(sub)?;
        }
        let sub = dir.join(format!("setup-{i}"));
        std::fs::create_dir_all(&sub)?;
        let t0 = Instant::now();
        let rt = Runtime::with_workers(procs());
        let suite = set_up(a.workload, a.seed, &a.sizes, &sub, &rt, &off)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        kept = Some((rt, suite, sub));
    }
    let (rt, suite, _) = kept.expect("at least one set-up");

    let mut tally = Tally::default();
    rounds(
        &suite,
        &rt,
        &off,
        &mut tally,
        None,
        WARM_SECONDS,
        WARM_ROUNDS,
        CAP_SECONDS,
    );
    let mut timed = Tally::default();
    let tail_window = stats::samples_for_tail(TAIL_Q, TAIL_BEYOND);
    let ticks0 = cpu_ticks();
    let timed_rounds = rounds(
        &suite,
        &rt,
        &off,
        &mut timed,
        None,
        a.seconds,
        TAIL_WINDOWS * tail_window,
        CAP_SECONDS,
    );
    let steal = match (ticks0, cpu_ticks()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
            format!("{:.3}", (s1 - s0) as f64 / (t1 - t0) as f64)
        }
        _ => "unknown".into(),
    };
    // A round during which the hypervisor took CPU time from this machine
    // measures the host: with one BSP process per core, a process whose
    // core is taken stalls its peer at the next boundary. The time metrics
    // use the other rounds, unless fewer than one p90 window of them remain.
    let quiet: Vec<f64> = timed_rounds
        .iter()
        .filter(|r| r.stolen.is_none_or(|t| t == 0))
        .map(|r| r.ms)
        .collect();
    let ms = if quiet.len() >= tail_window {
        quiet
    } else {
        println!(
            "# warning: {} of {} rounds ran with no CPU time taken by the host; \
             the time metrics use all rounds",
            quiet.len(),
            timed_rounds.len()
        );
        timed_rounds.iter().map(|r| r.ms).collect()
    };
    let p90 =
        stats::windowed_quantile(&ms, tail_window, TAIL_Q, TAIL_BEYOND).unwrap_or_else(|| {
            println!(
                "# warning: {} rounds fill no window of {tail_window} for p90",
                ms.len()
            );
            f64::NAN
        });
    // Verified jobs per round; every round runs the same job list.
    let ok_per_round = (timed.attempted - timed.failed) as f64 / timed_rounds.len().max(1) as f64;
    let rates: Vec<f64> = stats::windows_by_sum(&ms, RATE_WINDOW_MS)
        .into_iter()
        .map(|w| ok_per_round * w.len() as f64 / (w.iter().sum::<f64>() / 1e3))
        .collect();
    let timed_s: f64 = timed_rounds.iter().map(|r| r.ms).sum::<f64>() / 1e3;
    println!(
        "# workload={} seed={} p={} available_parallelism={} jobs_per_round={} rounds={} \
         rounds_used={} p90_windows={} rate_windows={} timed_s={timed_s:.3} setups={} host_steal_share={steal}",
        a.workload.name(),
        a.seed,
        procs(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        suite.jobs.len(),
        timed_rounds.len(),
        ms.len(),
        ms.len() / tail_window,
        rates.len(),
        setup_s.len(),
    );
    let metrics = vec![
        (
            "setup_s".into(),
            stats::median(&setup_s).unwrap_or(f64::NAN),
            "s",
        ),
        (
            "jobs_per_s".into(),
            stats::median(&rates).unwrap_or(f64::NAN),
            "1/s",
        ),
        (
            "round_ms".into(),
            stats::median(&ms).unwrap_or(f64::NAN),
            "ms",
        ),
        ("round_ms_p90".into(), p90, "ms"),
        ("peak_rss_mb".into(), peak_rss_mb(), "MiB"),
    ];
    tally.attempted += timed.attempted;
    tally.failed += timed.failed;
    tally.errors.extend(timed.errors);
    drop(suite);
    rt.shutdown();
    Ok((metrics, tally))
}

fn json(metrics: &[Metric], tally: &Tally) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            let v = if v.is_finite() {
                format!("{v}")
            } else {
                "null".into()
            };
            format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bspbench: {e}");
            eprintln!(
                "usage: bspbench --workload apps|comm|stream --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let dir = match RunDir::new() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("bspbench: cannot create the run directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Before any thread starts: the calibration cache and anything else
    // that falls back to the temp dir live in this run's directory.
    std::env::set_var("GREEN_BSP_CAL_CACHE", dir.0.join("cal-cache.txt"));
    std::env::set_var("TMPDIR", &dir.0);

    let res = if args.trace {
        layers::traced(&args, &dir.0)
    } else {
        end_to_end(&args, &dir.0)
    };
    match res {
        Ok((metrics, tally)) => {
            for e in &tally.errors {
                println!("# failed: {e}");
            }
            println!("{}", json(&metrics, &tally));
            if tally.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("bspbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench::round;

    /// Metric names of one section of the repository's `BENCHMARK.json`.
    fn declared(section: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let start = text.find(&format!("\"{section}\"")).expect("section");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("end of section")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("closing quote")].to_string())
            .collect()
    }

    fn tiny(workload: Workload, trace: bool) -> Args {
        Args {
            workload,
            seed: 5,
            seconds: 0.05,
            trace,
            sizes: Sizes::TINY,
        }
    }

    // One test drives every run: the calibration cache location is process
    // state, and runs on parallel test threads would share the cores they
    // time.
    #[test]
    fn every_workload_runs_clean_at_tiny_size_and_prints_the_declared_metrics() {
        let dir = RunDir::new().expect("run dir");
        std::env::set_var("GREEN_BSP_CAL_CACHE", dir.0.join("cal-cache.txt"));
        for w in Workload::ALL {
            let (m, tally) = end_to_end(&tiny(w, false), &dir.0).expect("end-to-end run");
            assert_eq!(tally.failed, 0, "{}: {:?}", w.name(), tally.errors);
            assert!(
                tally.attempted >= 300,
                "{}: at least 300 timed rounds",
                w.name()
            );
            let names: Vec<String> = m.iter().map(|x| x.0.clone()).collect();
            assert_eq!(names, declared("end_to_end"), "{}", w.name());
            for (n, v, _) in &m {
                assert!(v.is_finite() && *v > 0.0, "{} {n} = {v}", w.name());
            }

            let (m, tally) = layers::traced(&tiny(w, true), &dir.0).expect("traced run");
            assert_eq!(tally.failed, 0, "{}: {:?}", w.name(), tally.errors);
            let names: Vec<String> = m.iter().map(|x| x.0.clone()).collect();
            assert_eq!(names, declared("per_layer"), "{}", w.name());
            for (n, v, _) in &m {
                assert!(v.is_finite(), "{} {n} = {v}", w.name());
            }
        }
    }

    #[test]
    fn a_digest_mismatch_counts_as_a_failed_operation() {
        let dir = RunDir::new().expect("run dir");
        let rt = Runtime::with_workers(procs());
        let off = Tracer::new(false);
        for w in [Workload::Comm, Workload::Stream] {
            let mut suite =
                set_up(w, 9, &Sizes::TINY, &dir.0.join(w.name()), &rt, &off).expect("set-up");
            let mut tally = Tally::default();
            round(&suite, &rt, &off, &mut tally, None, 0);
            assert_eq!(
                (tally.attempted, tally.failed),
                (suite.jobs.len() as u64, 0)
            );

            suite.jobs[1].corrupt_reference();
            let mut tally = Tally::default();
            round(&suite, &rt, &off, &mut tally, None, 0);
            assert_eq!(tally.attempted, suite.jobs.len() as u64);
            assert_eq!(tally.failed, 1, "{}: {:?}", w.name(), tally.errors);
            assert!(tally.errors[0].contains("differs from the reference"));
            let json = json(&[], &tally);
            assert!(json.starts_with("{\"correct\": false,"), "{json}");
        }
        rt.shutdown();
    }
}
