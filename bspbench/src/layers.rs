//! The traced run: per-layer metrics, the paper's W/gH/LS split, and the
//! tracing overhead.
//!
//! It times the requested workload in alternating untraced and traced
//! rounds, reading every traced job's `RunStats`. It then runs a few traced
//! rounds of the other two workloads so that every job kind and every
//! layer probe (exchange rates, lane rate, guard overhead, streaming
//! rates) is reported on every workload, and finishes with the in-core
//! runs the streaming efficiencies compare against and the cost-model
//! calibration.

use crate::bench::{round, rounds, JobRec, Tally};
use crate::jobs::{grid_from_bytes, procs, Suite, Task, Workload};
use crate::stats::median;
use crate::trace::Tracer;
use crate::{set_up, Args, Metric, CAP_SECONDS, OUT_DIR, WARM_ROUNDS, WARM_SECONDS};
use bsp_ocean::tiled::jacobi_in_core;
use bsp_sort::sample_sort;
use green_bsp::{calibrate_at, BackendKind, Calibration, Runtime};
use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::time::Instant;

/// Traced rounds of each workload other than the requested one.
const OTHER_ROUNDS: usize = 5;
/// Repeats of each in-core reference run.
const IN_CORE_REPS: usize = 5;

pub fn traced(a: &Args, dir: &Path) -> io::Result<(Vec<Metric>, Tally)> {
    let tr = Tracer::new(true);
    let off = Tracer::new(false);
    let rt = tr.span(
        || "setup.spawn_runtime".into(),
        || Runtime::with_workers(procs()),
    );
    let mut suites: BTreeMap<&str, Suite> = BTreeMap::new();
    let suite = tr.span(
        || format!("setup {}", a.workload.name()),
        || {
            set_up(
                a.workload,
                a.seed,
                &a.sizes,
                &dir.join(a.workload.name()),
                &rt,
                &tr,
            )
        },
    )?;
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
    // Untraced and traced rounds alternate, so drift in the host's speed
    // over the run cannot pass for tracing overhead.
    let misses0 = rt.arena_misses();
    let (mut untraced, mut traced, mut own) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    while traced.is_empty() || start.elapsed().as_secs_f64() < a.seconds {
        untraced.push(round(&suite, &rt, &off, &mut tally, None, untraced.len()));
        traced.push(round(
            &suite,
            &rt,
            &tr,
            &mut tally,
            Some(&mut own),
            traced.len(),
        ));
    }
    let arena_misses = rt.arena_misses() - misses0;
    suites.insert(a.workload.name(), suite);

    let mut all = own.clone();
    for w in Workload::ALL.into_iter().filter(|&w| w != a.workload) {
        let s = tr.span(
            || format!("setup {}", w.name()),
            || set_up(w, a.seed, &a.sizes, &dir.join(w.name()), &rt, &tr),
        )?;
        rounds(&s, &rt, &off, &mut tally, None, 0.0, 1, CAP_SECONDS);
        rounds(
            &s,
            &rt,
            &tr,
            &mut tally,
            Some(&mut all),
            0.0,
            OTHER_ROUNDS,
            CAP_SECONDS,
        );
        suites.insert(w.name(), s);
    }
    let (sort_ms, jacobi_ms) = in_core(&suites["stream"], &rt, &tr, &mut tally)?;

    let mut backends: Vec<BackendKind> = Vec::new();
    for r in &own {
        if !backends.contains(&r.backend) {
            backends.push(r.backend);
        }
    }
    let t0 = Instant::now();
    let cals: Vec<(BackendKind, Calibration)> = backends
        .iter()
        .map(|&b| {
            let c = tr.span(
                || format!("cost.calibrate_at {b:?}"),
                || calibrate_at(b, procs()),
            );
            (b, c)
        })
        .collect();
    let calibrate_ms = t0.elapsed().as_secs_f64() * 1e3;
    let cal = |b: BackendKind| cals.iter().find(|(k, _)| *k == b).expect("calibrated").1;

    let untraced_ms = median(&untraced).unwrap_or(f64::NAN);
    let traced_ms = median(&traced).unwrap_or(f64::NAN);
    println!(
        "# workload={} seed={} p={} available_parallelism={} untraced_rounds={} \
         traced_rounds={} other_workload_rounds={OTHER_ROUNDS}",
        a.workload.name(),
        a.seed,
        procs(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        untraced.len(),
        traced.len(),
    );
    cost_table(a.workload, &own, &cal);
    self_time_table(&tr);

    let mut m: Vec<Metric> = Vec::new();
    let mut put = |name: &str, v: f64, unit: &'static str| m.push((name.to_string(), v, unit));

    put(
        "exec.launch_us",
        med(&own, None, |r| r.launch_ms * 1e3),
        "us",
    );
    put(
        "exec.tiny_job_us",
        med(&all, Some("tiny"), |r| r.ms * 1e3),
        "us",
    );
    put(
        "exec.queue_wait_us",
        med(&own, None, |r| r.queue_wait_ms * 1e3),
        "us",
    );
    put("exec.arena_misses", arena_misses as f64, "count");

    for (b, kind) in [
        ("shared", "ex_shared"),
        ("msgpass", "ex_msgpass"),
        ("tcpsim", "ex_tcpsim"),
    ] {
        let rate = med(&all, Some(kind), |r| r.pkts as f64 / r.ms / 1e3);
        put(&format!("backend.{b}.mpkts_per_s"), rate, "Mpkt/s");
    }
    put(
        "backend.pkts",
        per_round(&own, |r| r.pkts_moved as f64),
        "count",
    );
    put(
        "backend.lock_acquisitions",
        per_round(&own, |r| r.lock_acquisitions as f64),
        "count",
    );
    put(
        "backend.overflow_spills",
        per_round(&own, |r| r.overflow_spills as f64),
        "count",
    );

    put(
        "context.lane_mb_per_s",
        med(&all, Some("lane_1k"), |r| r.lane_bytes as f64 / r.ms / 1e3),
        "MB/s",
    );
    put(
        "context.lane_bytes",
        per_round(&own, |r| r.lane_bytes as f64),
        "count",
    );

    let own_s: u64 = own.iter().map(|r| r.s).sum();
    let own_wait: f64 = own.iter().map(|r| r.sync_wait_ms).sum();
    let own_ms: f64 = own.iter().map(|r| r.ms).sum();
    put(
        "barrier.supersteps",
        per_round(&own, |r| r.s as f64),
        "count",
    );
    put(
        "barrier.us_per_step",
        own_wait * 1e3 / own_s.max(1) as f64,
        "us",
    );
    put("barrier.sync_wait_share", own_wait / own_ms, "ratio");

    let ratio =
        |num: &str, den: &str| med(&all, Some(num), |r| r.ms) / med(&all, Some(den), |r| r.ms);
    put(
        "relax.neigh_over_full",
        ratio("ocean66_relax", "ocean66"),
        "x",
    );
    put(
        "fault.guard_overhead_x",
        ratio("ex_hardened", "ex_msgpass"),
        "x",
    );
    put(
        "fault.retries",
        all.iter().map(|r| r.retries as f64).sum(),
        "count",
    );

    let streamed = |r: &JobRec| matches!(r.kind, "extsort" | "tiled_ocean");
    let st: Vec<JobRec> = all.iter().filter(|r| streamed(r)).cloned().collect();
    let st_ms: f64 = st.iter().map(|r| r.ms).sum();
    let per_stream_round = |f: fn(&JobRec) -> f64| {
        ["extsort", "tiled_ocean"]
            .iter()
            .map(|k| med(&st, Some(k), f))
            .sum::<f64>()
    };
    put(
        "stream.prefetch_wait_ms",
        per_stream_round(|r| r.prefetch_ms),
        "ms",
    );
    put(
        "stream.read_mb_per_s",
        st.iter().map(|r| r.io_read as f64).sum::<f64>() / st_ms / 1e3,
        "MB/s",
    );
    put(
        "stream.write_mb_per_s",
        st.iter().map(|r| r.io_write as f64).sum::<f64>() / st_ms / 1e3,
        "MB/s",
    );
    put(
        "stream.io_mb",
        per_stream_round(|r| (r.io_read + r.io_write) as f64 / 1e6),
        "MB",
    );
    put(
        "stream.tiles",
        per_stream_round(|r| r.tiles as f64),
        "count",
    );
    put(
        "stream.extsort_efficiency",
        sort_ms / med(&all, Some("extsort"), |r| r.ms),
        "ratio",
    );
    put(
        "stream.ocean_efficiency",
        jacobi_ms / med(&all, Some("tiled_ocean"), |r| r.ms),
        "ratio",
    );

    let preds: Vec<(f64, f64, f64, f64)> = own
        .iter()
        .map(|r| {
            let p = cal(r.backend).predict(r.w_ms / 1e3, r.h, r.s);
            (p.work * 1e3, p.bandwidth * 1e3, p.latency * 1e3, r.ms)
        })
        .collect();
    let errs: Vec<f64> = preds
        .iter()
        .map(|(w, g, l, ms)| (w + g + l - ms).abs() / ms)
        .collect();
    let (sw, sg, sl) = preds
        .iter()
        .fold((0.0, 0.0, 0.0), |(a, b, c), (w, g, l, _)| {
            (a + w, b + g, c + l)
        });
    let total = sw + sg + sl;
    put("cost.calibrate_ms", calibrate_ms, "ms");
    put("cost.pred_err", median(&errs).unwrap_or(f64::NAN), "ratio");
    put("cost.w_share", sw / total, "ratio");
    put("cost.gh_share", sg / total, "ratio");
    put("cost.ls_share", sl / total, "ratio");

    for w in Workload::ALL {
        for &kind in w.kinds() {
            put(
                &format!("job.{kind}.ms"),
                med(&all, Some(kind), |r| r.ms),
                "ms",
            );
            put(
                &format!("job.{kind}.w_ms"),
                med(&all, Some(kind), |r| r.w_ms),
                "ms",
            );
            put(
                &format!("job.{kind}.h"),
                med(&all, Some(kind), |r| r.h as f64),
                "count",
            );
            put(
                &format!("job.{kind}.s"),
                med(&all, Some(kind), |r| r.s as f64),
                "count",
            );
        }
    }
    put("trace.overhead_x", traced_ms / untraced_ms, "x");

    let path = Path::new(OUT_DIR).join(format!("trace-{}-{}.json", a.workload.name(), a.seed));
    std::fs::write(&path, tr.chrome_json())?;
    println!(
        "# chrome trace: {} ({} spans)",
        path.display(),
        tr.spans().len()
    );
    drop(suites);
    rt.shutdown();
    Ok((m, tally))
}

/// Median of `f` over the records of `kind` (all records for `None`).
fn med(recs: &[JobRec], kind: Option<&str>, f: impl Fn(&JobRec) -> f64) -> f64 {
    let xs: Vec<f64> = recs
        .iter()
        .filter(|r| kind.is_none_or(|k| r.kind == k))
        .map(f)
        .collect();
    median(&xs).unwrap_or(f64::NAN)
}

/// Median over rounds of the per-round sum of `f`.
fn per_round(recs: &[JobRec], f: impl Fn(&JobRec) -> f64) -> f64 {
    let mut sums: BTreeMap<usize, f64> = BTreeMap::new();
    for r in recs {
        *sums.entry(r.round).or_default() += f(r);
    }
    median(&sums.into_values().collect::<Vec<_>>()).unwrap_or(f64::NAN)
}

/// Time the in-core counterparts of the streamed jobs: a warm sample sort
/// of the whole key set at the jobs' width and the sequential Jacobi
/// sweeps. Each output is checked like a job's. Returns median ms of each.
fn in_core(suite: &Suite, rt: &Runtime, tr: &Tracer, tally: &mut Tally) -> io::Result<(f64, f64)> {
    let (mut sort_ms, mut jacobi_ms) = (Vec::new(), Vec::new());
    for job in &suite.jobs {
        match &job.task {
            Task::ExtSort {
                cfg, input, want, ..
            } => {
                let keys: Vec<u64> = input
                    .read_to_vec()?
                    .chunks_exact(8)
                    .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte key")))
                    .collect();
                let per = keys.len().div_ceil(cfg.nprocs);
                for _ in 0..IN_CORE_REPS {
                    let t0 = Instant::now();
                    let out = tr.span(
                        || "sort.sample_sort in-core".into(),
                        || {
                            rt.try_run(cfg, |ctx| {
                                let lo = (ctx.pid() * per).min(keys.len());
                                let hi = ((ctx.pid() + 1) * per).min(keys.len());
                                sample_sort(ctx, keys[lo..hi].to_vec())
                            })
                        },
                    );
                    sort_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                    let ok = out.is_ok_and(|o| {
                        let got: Vec<u8> = o
                            .results
                            .iter()
                            .flatten()
                            .flat_map(|k| k.to_le_bytes())
                            .collect();
                        &got == want
                    });
                    count(tally, ok, "in-core sort");
                }
            }
            Task::Tiled {
                n,
                sweeps,
                grid,
                want,
                ..
            } => {
                let u0 = grid_from_bytes(grid);
                for _ in 0..IN_CORE_REPS {
                    let mut u = u0.clone();
                    let t0 = Instant::now();
                    tr.span(
                        || "ocean.jacobi_in_core".into(),
                        || jacobi_in_core(*n, &mut u, *sweeps),
                    );
                    jacobi_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                    let got: Vec<u8> = u.iter().flat_map(|v| v.to_le_bytes()).collect();
                    count(tally, &got == want, "in-core jacobi");
                }
            }
            Task::Bsp { .. } => {}
        }
    }
    Ok((
        median(&sort_ms).unwrap_or(f64::NAN),
        median(&jacobi_ms).unwrap_or(f64::NAN),
    ))
}

fn count(tally: &mut Tally, ok: bool, what: &str) {
    tally.attempted += 1;
    if !ok {
        tally.fail(format!("{what}: output differs from the reference"));
    }
}

/// Measured wall next to the cost model, per job kind: `W` is measured,
/// `H` and `S` are counted, `g` and `L` come from `calibrate_at`.
fn cost_table(w: Workload, own: &[JobRec], cal: &impl Fn(BackendKind) -> Calibration) {
    println!(
        "# {:<14} {:>6} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>7}",
        w.name(),
        "n",
        "wall_ms",
        "W_ms",
        "gH_ms",
        "LS_ms",
        "pred_ms",
        "H",
        "S"
    );
    let (mut tw, mut tp, mut tg, mut tl, mut tt) = (0.0, 0.0, 0.0, 0.0, 0.0);
    for &kind in w.kinds() {
        let recs: Vec<&JobRec> = own.iter().filter(|r| r.kind == kind).collect();
        let Some(first) = recs.first() else { continue };
        let xs = |f: fn(&JobRec) -> f64| median(&recs.iter().map(|r| f(r)).collect::<Vec<_>>());
        let (ms, wms) = (xs(|r| r.ms).unwrap_or(0.0), xs(|r| r.w_ms).unwrap_or(0.0));
        let (h, s) = (first.h, first.s);
        let p = cal(first.backend).predict(wms / 1e3, h, s);
        // Per round: the kind's median times how often a round runs it.
        let k = recs.len() as f64 / (recs.iter().map(|r| r.round).max().unwrap_or(0) + 1) as f64;
        tw += k * ms;
        tp += k * wms;
        tg += k * p.bandwidth * 1e3;
        tl += k * p.latency * 1e3;
        tt += k * p.total() * 1e3;
        println!(
            "# {kind:<14} {:>6} {ms:>9.3} {wms:>9.3} {:>9.3} {:>9.3} {:>9.3} {h:>9} {s:>7}",
            recs.len(),
            p.bandwidth * 1e3,
            p.latency * 1e3,
            p.total() * 1e3,
        );
    }
    println!(
        "# {:<14} {:>6} {tw:>9.3} {tp:>9.3} {tg:>9.3} {tl:>9.3} {tt:>9.3}",
        "round", ""
    );
}

/// Span self time by call name: where the traced run's time went.
fn self_time_table(tr: &Tracer) {
    let own = tr.self_times_us();
    let mut by: BTreeMap<&str, (usize, f64, f64)> = BTreeMap::new();
    let spans = tr.spans();
    for (s, self_us) in spans.iter().zip(&own) {
        let key = s.name.split(' ').next().unwrap_or("");
        let e = by.entry(key).or_default();
        e.0 += 1;
        e.1 += s.end_us - s.start_us;
        e.2 += self_us;
    }
    let mut rows: Vec<_> = by.into_iter().collect();
    rows.sort_by(|a, b| b.1 .2.total_cmp(&a.1 .2));
    println!(
        "# {:<34} {:>8} {:>11} {:>11}",
        "span", "calls", "total_ms", "self_ms"
    );
    for (name, (n, total, own)) in rows {
        println!(
            "# {name:<34} {n:>8} {:>11.3} {:>11.3}",
            total / 1e3,
            own / 1e3
        );
    }
}
