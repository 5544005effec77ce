//! The three workloads: their job lists, seeded inputs, reference
//! outputs, and how one job runs and is checked.
//!
//! Everything a job needs is made in [`build`]: inputs from the seed,
//! partitions and reference outputs (sequential-simulator digests for the
//! BSP jobs, in-core results for the streamed ones). A job then only
//! submits, joins and, outside its timed span, compares its output with
//! the reference.

use crate::trace::Tracer;
use bsp_graph::{build_locals, geometric_graph, msp_run, mst_run, partition_kd, sp_run, Graph};
use bsp_matmul::{cannon_run, skewed_blocks, Mat};
use bsp_nbody::{initial_partition, nbody_sim, plummer, SimConfig};
use bsp_ocean::grid::ghost_graph;
use bsp_ocean::tiled::jacobi_in_core;
use bsp_ocean::{ocean_run, tiled_jacobi, CycleMode, MgParams, OceanConfig};
use bsp_sort::external_sample_sort_with;
use green_bsp::collectives::allreduce_u64;
use green_bsp::{BackendKind, Config, Ctx, Packet, RunStats, Runtime, StreamConfig, TileStore};
use std::path::Path;
use std::sync::Arc;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper's six applications: compute-bound, the control for the
    /// fabric, executor and streaming layers.
    Apps,
    /// Short superstep-bound jobs: fabric, byte lane, barrier, relaxed
    /// sync, fault guard and executor launch do most of the work.
    Comm,
    /// Out-of-core jobs: the streaming layer does most of the work.
    Stream,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Apps, Workload::Comm, Workload::Stream];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Apps => "apps",
            Workload::Comm => "comm",
            Workload::Stream => "stream",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Job kinds in the order one round runs them (the 50 `tiny` jobs of
    /// `comm` share one kind).
    pub fn kinds(self) -> &'static [&'static str] {
        match self {
            Workload::Apps => &["ocean", "nbody", "mst", "sp", "msp", "matmult"],
            Workload::Comm => &[
                "ex_shared",
                "ex_msgpass",
                "ex_tcpsim",
                "ex_hardened",
                "lane_1k",
                "ocean66",
                "ocean66_relax",
                "tiny",
            ],
            Workload::Stream => &["extsort", "tiled_ocean"],
        }
    }
}

/// Problem sizes. [`Sizes::FULL`] is the benchmark; [`Sizes::TINY`] is
/// the smoke-test scale.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Ocean size label of `apps` (interior + boundary ring).
    pub ocean: usize,
    pub nbody: usize,
    /// Vertices of the `mst` graph and, separately, of the `sp` graph.
    pub graph: usize,
    /// Vertices of the `msp` graph.
    pub msp_graph: usize,
    pub matmul: usize,
    /// Packets each process sends per superstep in the exchange jobs.
    pub ex_pkts: usize,
    pub ex_steps: usize,
    /// 1 KiB messages each process sends to each process per superstep.
    pub lane_msgs: usize,
    pub lane_steps: usize,
    /// Ocean size label of `comm`.
    pub ocean_small: usize,
    pub tiny_jobs: usize,
    pub sort_keys: usize,
    /// Side of the tiled-ocean grid.
    pub grid: usize,
    pub sweeps: usize,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        ocean: 130,
        nbody: 2000,
        graph: 20_000,
        msp_graph: 2500,
        matmul: 288,
        ex_pkts: 20_000,
        ex_steps: 16,
        lane_msgs: 64,
        lane_steps: 16,
        ocean_small: 66,
        tiny_jobs: 50,
        sort_keys: 1 << 20,
        grid: 512,
        sweeps: 4,
    };

    pub const TINY: Sizes = Sizes {
        ocean: 34,
        nbody: 200,
        graph: 400,
        msp_graph: 300,
        matmul: 48,
        ex_pkts: 200,
        ex_steps: 2,
        lane_msgs: 2,
        lane_steps: 2,
        ocean_small: 34,
        tiny_jobs: 3,
        sort_keys: 1 << 12,
        grid: 32,
        sweeps: 2,
    };
}

/// Size of one byte-lane message in `lane_1k`.
const LANE_MSG_BYTES: usize = 1024;
/// The paper's 25 simultaneous sources for MSP.
const MSP_SOURCES: usize = 25;

type Body = Arc<dyn Fn(&mut Ctx) -> u64 + Send + Sync>;

pub enum Task {
    /// One BSP job; each process returns a digest of its output.
    Bsp {
        cfg: Config,
        body: Body,
        want: Vec<u64>,
    },
    /// External sample sort of `input` into `output`.
    ExtSort {
        cfg: Config,
        sc: StreamConfig,
        input: TileStore,
        output: TileStore,
        want: Vec<u8>,
    },
    /// Stage `grid` into `ping`, then tiled Jacobi sweeps.
    Tiled {
        cfg: Config,
        sc: StreamConfig,
        n: usize,
        sweeps: usize,
        grid: Vec<u8>,
        ping: TileStore,
        pong: TileStore,
        want: Vec<u8>,
    },
}

pub struct Job {
    pub kind: &'static str,
    pub task: Task,
}

/// What a finished job hands to verification and to the traced report.
pub struct Done {
    pub stats: RunStats,
    pub digests: Vec<u64>,
}

impl Job {
    /// Run the job once: the timed part.
    pub fn execute(&self, rt: &Runtime, tr: &Tracer) -> Result<Done, String> {
        let kind = self.kind;
        match &self.task {
            Task::Bsp { cfg, body, .. } => {
                let body = Arc::clone(body);
                let handle = tr.span(
                    || format!("exec.submit {kind}"),
                    || rt.submit(cfg, move |ctx| body(ctx)),
                );
                let out = tr
                    .span(|| format!("exec.join {kind}"), || handle.join())
                    .map_err(|e| format!("{kind}: {e}"))?;
                Ok(Done {
                    stats: out.stats,
                    digests: out.results,
                })
            }
            Task::ExtSort {
                cfg,
                sc,
                input,
                output,
                ..
            } => {
                let r = tr
                    .span(
                        || "sort.external_sample_sort_with".into(),
                        || external_sample_sort_with(rt, cfg, sc, input, output, true),
                    )
                    .map_err(|e| format!("{kind}: {e}"))?;
                Ok(Done {
                    stats: r.stats,
                    digests: Vec::new(),
                })
            }
            Task::Tiled {
                cfg,
                sc,
                n,
                sweeps,
                grid,
                ping,
                pong,
                ..
            } => {
                tr.span(
                    || "stream.TileStore.write_all".into(),
                    || ping.write_all(grid),
                )
                .map_err(|e| format!("{kind}: staging: {e}"))?;
                let r = tr
                    .span(
                        || "ocean.tiled_jacobi".into(),
                        || tiled_jacobi(rt, cfg, sc, *n, ping, pong, *sweeps),
                    )
                    .map_err(|e| format!("{kind}: {e}"))?;
                Ok(Done {
                    stats: r.stats,
                    digests: Vec::new(),
                })
            }
        }
    }

    /// Compare a finished job's output with its reference (untimed).
    pub fn verify(&self, done: &Done) -> bool {
        match &self.task {
            Task::Bsp { want, .. } => &done.digests == want,
            Task::ExtSort { output, want, .. } => {
                output.read_to_vec().is_ok_and(|got| &got == want)
            }
            Task::Tiled {
                sweeps,
                ping,
                pong,
                want,
                ..
            } => {
                let result = if sweeps % 2 == 1 { pong } else { ping };
                result.read_to_vec().is_ok_and(|got| &got == want)
            }
        }
    }

    pub fn cfg(&self) -> &Config {
        match &self.task {
            Task::Bsp { cfg, .. } | Task::ExtSort { cfg, .. } | Task::Tiled { cfg, .. } => cfg,
        }
    }

    /// Corrupt the reference so the next check of this job must fail.
    #[cfg(test)]
    pub fn corrupt_reference(&mut self) {
        match &mut self.task {
            Task::Bsp { want, .. } => want[0] ^= 1,
            Task::ExtSort { want, .. } | Task::Tiled { want, .. } => want[0] ^= 1,
        }
    }
}

/// A workload's prepared job list.
pub struct Suite {
    pub workload: Workload,
    pub jobs: Vec<Job>,
}

/// Mix one 64-bit value into a running digest (order-sensitive).
fn mix(acc: u64, bits: u64) -> u64 {
    (acc.rotate_left(21) ^ bits).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// splitmix64: the seeded stream behind every generated value.
fn splitmix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Independent sub-seed `k` of the workload seed.
fn subseed(seed: u64, k: u64) -> u64 {
    let mut x = seed ^ k.wrapping_mul(0xA076_1D64_78BD_642F);
    splitmix(&mut x)
}

fn bsp_job(kind: &'static str, cfg: Config, body: Body) -> Job {
    Job {
        kind,
        task: Task::Bsp {
            cfg,
            body,
            want: Vec::new(),
        },
    }
}

/// The paper's ocean with adaptive multigrid, 3 time steps. `relaxed`
/// closes the ghost exchanges on neighbourhood barriers.
fn ocean_job(kind: &'static str, label: usize, p: usize, relaxed: bool) -> Job {
    let ocfg = OceanConfig {
        steps: 3,
        mg: MgParams {
            mode: CycleMode::Adaptive {
                rel_tol: 1e-5,
                max: 10,
            },
            relaxed,
            ..MgParams::default()
        },
        ..OceanConfig::new(label - 2)
    };
    let mut cfg = Config::new(p);
    if relaxed {
        cfg = cfg.sync_graph(&ghost_graph(p));
    }
    bsp_job(
        kind,
        cfg,
        Arc::new(move |ctx| {
            let r = ocean_run(ctx, &ocfg);
            let d = mix(r.kinetic_energy.to_bits(), r.psi_integral.to_bits());
            r.psi_block.4.iter().fold(d, |d, x| mix(d, x.to_bits()))
        }),
    )
}

/// Cyclic total exchange: each process sends `volume` packets per
/// superstep, round-robin over all processes, then drains its inbox. The
/// digest is order-free, since arrival order differs between backends.
fn exchange_body(seed: u64, volume: usize, steps: usize) -> Body {
    Arc::new(move |ctx| {
        let p = ctx.nprocs();
        let tag = subseed(seed, ctx.pid() as u64);
        let mut batch: Vec<Packet> = Vec::new();
        let (mut count, mut sum) = (0u64, 0u64);
        for step in 0..steps {
            for dest in 0..p {
                let k = volume / p + usize::from(dest < volume % p);
                batch.clear();
                batch.extend(
                    (0..k).map(|i| Packet::two_u64(tag, (step * volume + i * p + dest) as u64)),
                );
                ctx.send_pkts(dest, &batch);
            }
            ctx.sync();
            while let Some(pkt) = ctx.get_pkt() {
                count += 1;
                sum = sum.wrapping_add(mix(pkt.get_u64(0), pkt.get_u64(8)));
            }
        }
        mix(count, sum)
    })
}

/// Byte-lane all-to-all of 1 KiB messages with seeded contents.
fn lane_body(seed: u64, msgs: usize, steps: usize) -> Body {
    Arc::new(move |ctx| {
        let p = ctx.nprocs();
        let mut x = subseed(seed, 1000 + ctx.pid() as u64);
        let payload: Vec<u8> = (0..LANE_MSG_BYTES)
            .map(|_| splitmix(&mut x) as u8)
            .collect();
        let (mut count, mut sum) = (0u64, 0u64);
        for _ in 0..steps {
            for dest in 0..p {
                for _ in 0..msgs {
                    ctx.send_bytes(dest, &payload);
                }
            }
            ctx.sync();
            while let Some((src, bytes)) = ctx.recv_bytes() {
                count += 1;
                let h = bytes.chunks(8).fold(src as u64, |h, c| {
                    let mut w = [0u8; 8];
                    w[..c.len()].copy_from_slice(c);
                    mix(h, u64::from_le_bytes(w))
                });
                sum = sum.wrapping_add(h);
            }
        }
        mix(count, sum)
    })
}

fn key_bytes(keys: &[u64]) -> Vec<u8> {
    keys.iter().flat_map(|k| k.to_le_bytes()).collect()
}

fn grid_bytes(u: &[f64]) -> Vec<u8> {
    u.iter().flat_map(|v| v.to_le_bytes()).collect()
}

pub fn grid_from_bytes(b: &[u8]) -> Vec<f64> {
    b.chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunk")))
        .collect()
}

/// Processes per job: two, or fewer on a host with fewer cores.
pub fn procs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// Build the workload's job list from `seed`: inputs, partitions and
/// reference outputs. Streamed jobs keep their stores in `dir`.
pub fn build(
    workload: Workload,
    seed: u64,
    sz: &Sizes,
    dir: &Path,
    rt: &Runtime,
    tr: &Tracer,
) -> std::io::Result<Suite> {
    let p = procs();
    let mut jobs = match workload {
        Workload::Apps => tr.span(|| "setup.inputs".into(), || apps_jobs(seed, sz, p, tr)),
        Workload::Comm => tr.span(|| "setup.inputs".into(), || comm_jobs(seed, sz, p)),
        Workload::Stream => tr.span(
            || "setup.inputs".into(),
            || stream_jobs(seed, sz, p, dir, tr),
        )?,
    };
    tr.span(
        || "setup.reference".into(),
        || {
            for job in &mut jobs {
                if let Task::Bsp { cfg, body, want } = &mut job.task {
                    let mut seq = cfg.clone();
                    seq.backend = BackendKind::SeqSim;
                    seq.tolerance = None;
                    let out = rt
                        .try_run(&seq, |ctx| body(ctx))
                        .expect("reference run on the sequential simulator");
                    *want = out.results;
                }
            }
        },
    );
    Ok(Suite { workload, jobs })
}

fn apps_jobs(seed: u64, sz: &Sizes, p: usize, tr: &Tracer) -> Vec<Job> {
    let bodies = tr.span(
        || "setup.gen plummer".into(),
        || plummer(sz.nbody, subseed(seed, 1)),
    );
    let graph = |n, k| {
        tr.span(
            || "setup.gen geometric_graph".into(),
            || steady_geometric_graph(n, subseed(seed, k)),
        )
    };
    let (g, gs, gm) = (
        graph(sz.graph, 2),
        graph(sz.graph, 3),
        graph(sz.msp_graph, 8),
    );
    let (a, b) = tr.span(
        || "setup.gen Mat::random".into(),
        || {
            (
                Mat::random(sz.matmul, sz.matmul, subseed(seed, 4)),
                Mat::random(sz.matmul, sz.matmul, subseed(seed, 5)),
            )
        },
    );
    tr.span(
        || "setup.partition".into(),
        || {
            let (parts, cuts) = initial_partition(&bodies, p);
            let n = bodies.len();
            let owner = partition_kd(&g.pos, p);
            let locals = build_locals(&g, &owner, p);
            let locals_s = build_locals(&gs, &partition_kd(&gs.pos, p), p);
            // The source nearest the centre: a corner source would double
            // the hop depth, and with it the superstep count, by chance.
            let centre = |&(x, y): &(f64, f64)| (x - 0.5).powi(2) + (y - 0.5).powi(2);
            let source = (0..gs.n)
                .min_by(|&a, &b| centre(&gs.pos[a]).total_cmp(&centre(&gs.pos[b])))
                .expect("non-empty graph") as u32;
            let owner_m = partition_kd(&gm.pos, p);
            let locals_m = build_locals(&gm, &owner_m, p);
            let sources: Vec<u32> = (0..MSP_SOURCES)
                .map(|i| ((i * gm.n) / MSP_SOURCES) as u32)
                .collect();
            // Cannon's algorithm needs a square process count; p = 4 would
            // oversubscribe a two-core host, so matmult runs at p = 1.
            let blocks = skewed_blocks(&a, &b, 1);
            vec![
                ocean_job("ocean", sz.ocean, p, false),
                bsp_job(
                    "nbody",
                    Config::new(p),
                    Arc::new(move |ctx| {
                        let sim = SimConfig::default();
                        let mut r = nbody_sim(ctx, parts[ctx.pid()].clone(), cuts.clone(), n, &sim);
                        r.bodies.sort_by_key(|b| b.id);
                        r.bodies.iter().fold(0, |mut d, b| {
                            d = mix(d, u64::from(b.id));
                            for v in [b.pos.x, b.pos.y, b.pos.z, b.vel.x, b.vel.y, b.vel.z] {
                                d = mix(d, v.to_bits());
                            }
                            d
                        })
                    }),
                ),
                bsp_job(
                    "mst",
                    Config::new(p),
                    Arc::new(move |ctx| {
                        let r = mst_run(ctx, &locals[ctx.pid()], &owner);
                        mix(r.total_weight.to_bits(), r.total_edges)
                    }),
                ),
                bsp_job(
                    "sp",
                    Config::new(p),
                    Arc::new(move |ctx| {
                        sp_run(
                            ctx,
                            &locals_s[ctx.pid()],
                            source,
                            bsp_graph::DEFAULT_WORK_FACTOR,
                        )
                        .dist
                        .iter()
                        .fold(0, |d, x| mix(d, x.to_bits()))
                    }),
                ),
                bsp_job(
                    "msp",
                    Config::new(p),
                    Arc::new(move |ctx| {
                        let wf = bsp_graph::DEFAULT_WORK_FACTOR;
                        msp_run(ctx, &locals_m[ctx.pid()], &sources, wf)
                            .dist
                            .iter()
                            .flatten()
                            .fold(0, |d, x| mix(d, x.to_bits()))
                    }),
                ),
                bsp_job(
                    "matmult",
                    Config::new(1),
                    Arc::new(move |ctx| {
                        let (ab, bb) = blocks[ctx.pid()].clone();
                        cannon_run(ctx, ab, bb)
                            .data
                            .iter()
                            .fold(0, |d, x| mix(d, x.to_bits()))
                    }),
                ),
            ]
        },
    )
}

/// A random geometric graph on the seeded uniform points of
/// [`geometric_graph`], at radius `max(δ, 1.5·sqrt(ln n / (π n)))`.
///
/// The paper's G(δ) uses the least connecting radius δ, which its most
/// isolated vertex sets, so its edge count, and job time and memory with
/// it, varies by about 17% (sd) between seeds at n = 20000. At 1.5 times
/// the connectivity threshold the graph is connected except with
/// probability about n^-1.25 (then δ keeps it connected), its edge count
/// barely depends on the seed, and its minimum spanning tree is G(δ)'s.
fn steady_geometric_graph(n: usize, seed: u64) -> Graph {
    let g = geometric_graph(n, seed);
    let r = g
        .delta
        .max(1.5 * ((n as f64).ln() / (std::f64::consts::PI * n as f64)).sqrt());
    // Buckets at least r wide, so a 3×3 scan finds every neighbour.
    let dim = ((1.0 / r).floor() as usize).max(1);
    let cell = |c: f64| ((c * dim as f64) as usize).min(dim - 1);
    let mut buckets = vec![Vec::new(); dim * dim];
    for (i, &(x, y)) in g.pos.iter().enumerate() {
        buckets[cell(y) * dim + cell(x)].push(i as u32);
    }
    let (mut xadj, mut adj) = (vec![0u32], Vec::new());
    for (u, &(x, y)) in g.pos.iter().enumerate() {
        let (bx, by, start) = (cell(x), cell(y), adj.len());
        for cy in by.saturating_sub(1)..=(by + 1).min(dim - 1) {
            for cx in bx.saturating_sub(1)..=(bx + 1).min(dim - 1) {
                for &v in &buckets[cy * dim + cx] {
                    let (vx, vy) = g.pos[v as usize];
                    let d2 = (vx - x) * (vx - x) + (vy - y) * (vy - y);
                    if v as usize != u && d2 <= r * r {
                        adj.push((v, d2.sqrt()));
                    }
                }
            }
        }
        adj[start..].sort_unstable_by_key(|e: &(u32, f64)| e.0);
        xadj.push(adj.len() as u32);
    }
    Graph {
        n,
        xadj,
        adj,
        pos: g.pos,
        delta: r,
    }
}

fn comm_jobs(seed: u64, sz: &Sizes, p: usize) -> Vec<Job> {
    let ex = |kind, cfg: Config| bsp_job(kind, cfg, exchange_body(seed, sz.ex_pkts, sz.ex_steps));
    let mut jobs = vec![
        ex("ex_shared", Config::new(p)),
        ex("ex_msgpass", Config::new(p).backend(BackendKind::MsgPass)),
        ex("ex_tcpsim", Config::new(p).backend(BackendKind::TcpSim)),
        ex(
            "ex_hardened",
            Config::new(p).backend(BackendKind::MsgPass).hardened(),
        ),
        bsp_job(
            "lane_1k",
            Config::new(p),
            lane_body(seed, sz.lane_msgs, sz.lane_steps),
        ),
        ocean_job("ocean66", sz.ocean_small, p, false),
        ocean_job("ocean66_relax", sz.ocean_small, p, true),
    ];
    let tiny_seed = subseed(seed, 6);
    let tiny: Body = Arc::new(move |ctx| {
        allreduce_u64(ctx, subseed(tiny_seed, ctx.pid() as u64), u64::wrapping_add)
    });
    for _ in 0..sz.tiny_jobs {
        jobs.push(bsp_job("tiny", Config::new(p), Arc::clone(&tiny)));
    }
    jobs
}

fn stream_jobs(
    seed: u64,
    sz: &Sizes,
    p: usize,
    dir: &Path,
    tr: &Tracer,
) -> std::io::Result<Vec<Job>> {
    let cfg = Config::new(p);
    let mut x = subseed(seed, 7);
    let keys: Vec<u64> = (0..sz.sort_keys).map(|_| splitmix(&mut x)).collect();
    let input = TileStore::create_in(dir, "sort-input.keys")?;
    tr.span(
        || "stream.TileStore.write_all".into(),
        || input.write_all(&key_bytes(&keys)),
    )?;
    let mut sorted = keys;
    tr.span(
        || "setup.reference in-core sort".into(),
        || sorted.sort_unstable(),
    );
    let sort_total = sorted.len() * 8;

    let n = sz.grid;
    let u0: Vec<f64> = (0..n * n)
        .map(|_| (splitmix(&mut x) >> 11) as f64 / (1u64 << 53) as f64)
        .collect();
    let mut relaxed = u0.clone();
    tr.span(
        || "setup.reference jacobi_in_core".into(),
        || jacobi_in_core(n, &mut relaxed, sz.sweeps),
    );
    let grid_total = n * n * 8;
    let pong = TileStore::create_in(dir, "ocean-pong.grid")?;
    pong.write_all(&vec![0u8; grid_total])?;

    // Both jobs stream with a tile budget of a quarter of their input.
    Ok(vec![
        Job {
            kind: "extsort",
            task: Task::ExtSort {
                cfg: cfg.clone(),
                sc: StreamConfig::new(sort_total / 4).record(8).spill_dir(dir),
                input,
                output: TileStore::create_in(dir, "sort-output.keys")?,
                want: key_bytes(&sorted),
            },
        },
        Job {
            kind: "tiled_ocean",
            task: Task::Tiled {
                cfg,
                sc: StreamConfig::new(grid_total / 4).spill_dir(dir),
                n,
                sweeps: sz.sweeps,
                grid: grid_bytes(&u0),
                ping: TileStore::create_in(dir, "ocean-ping.grid")?,
                pong,
                want: grid_bytes(&relaxed),
            },
        },
    ])
}
