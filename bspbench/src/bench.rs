//! The closed loop: rounds of a workload's job list, one job in flight,
//! each job timed from submit to join and checked outside that span.

use crate::jobs::{Done, Suite};
use crate::trace::Tracer;
use green_bsp::{BackendKind, RunStats, Runtime};
use std::time::Instant;

/// Operations attempted and failed. A job that returns an error or whose
/// output differs from its reference is a failure, never a slow success.
#[derive(Default, Debug)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages, for the log.
    pub errors: Vec<String>,
}

impl Tally {
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(msg);
        }
    }
}

/// What the traced report keeps of one job.
#[derive(Clone, Debug)]
pub struct JobRec {
    pub kind: &'static str,
    pub round: usize,
    pub backend: BackendKind,
    /// Submit-to-join wall time.
    pub ms: f64,
    pub w_ms: f64,
    /// `H` in packets, byte-lane bytes counted in 16-byte packets.
    pub h: u64,
    pub s: u64,
    pub pkts: u64,
    pub lane_bytes: u64,
    pub launch_ms: f64,
    pub queue_wait_ms: f64,
    /// Boundary wait, averaged over the job's processes.
    pub sync_wait_ms: f64,
    pub pkts_moved: u64,
    pub lock_acquisitions: u64,
    pub overflow_spills: u64,
    pub io_read: u64,
    pub io_write: u64,
    pub prefetch_ms: f64,
    pub tiles: u64,
    pub retries: u64,
}

impl JobRec {
    fn new(kind: &'static str, round: usize, backend: BackendKind, ms: f64, st: &RunStats) -> Self {
        let t = st.transport_total();
        JobRec {
            kind,
            round,
            backend,
            ms,
            w_ms: st.w_total().as_secs_f64() * 1e3,
            h: st.h_total() + st.h_bytes_total().div_ceil(16),
            s: st.s(),
            pkts: st.total_pkts(),
            lane_bytes: st.total_bytes(),
            launch_ms: st.setup_ms() + st.teardown_ms(),
            queue_wait_ms: st.queue_wait.as_secs_f64() * 1e3,
            sync_wait_ms: st.sync_wait_ms() / st.nprocs.max(1) as f64,
            pkts_moved: t.pkts_moved,
            lock_acquisitions: t.lock_acquisitions,
            overflow_spills: t.overflow_spills,
            io_read: st.io_read_bytes,
            io_write: st.io_write_bytes,
            prefetch_ms: st.prefetch_wait_ms(),
            tiles: st.tiles,
            retries: st.faults.retried + st.attempts.saturating_sub(1),
        }
    }
}

/// Run the job list once, in order. Returns the round's time: the sum of
/// its jobs' timed spans. `recs`, when given, receives one record per job.
pub fn round(
    suite: &Suite,
    rt: &Runtime,
    tr: &Tracer,
    tally: &mut Tally,
    mut recs: Option<&mut Vec<JobRec>>,
    round_no: usize,
) -> f64 {
    let mut total_ms = 0.0;
    tr.span(
        || format!("round {}", suite.workload.name()),
        || {
            for job in &suite.jobs {
                let t0 = Instant::now();
                let res: Result<Done, String> =
                    tr.span(|| format!("job {}", job.kind), || job.execute(rt, tr));
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                total_ms += ms;
                tally.attempted += 1;
                match res {
                    Ok(done) => {
                        if !job.verify(&done) {
                            tally.fail(format!("{}: output differs from the reference", job.kind));
                        }
                        if let Some(r) = recs.as_deref_mut() {
                            r.push(JobRec::new(
                                job.kind,
                                round_no,
                                job.cfg().backend,
                                ms,
                                &done.stats,
                            ));
                        }
                    }
                    Err(e) => tally.fail(e),
                }
            }
        },
    );
    total_ms
}

/// One round of the closed loop.
pub struct Timed {
    /// The round's time: the sum of its job spans.
    pub ms: f64,
    /// CPU time the hypervisor took from this machine while the round ran,
    /// in clock ticks; `None` where the kernel does not report it.
    pub stolen: Option<u64>,
}

/// CPU time the hypervisor took from this virtual machine, and all CPU
/// time, in clock ticks, from the `cpu` line of `/proc/stat`; `None` where
/// the kernel does not report them.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// Run rounds until `seconds` have passed and at least `min_rounds` are
/// done, but never past `cap_seconds`.
#[allow(clippy::too_many_arguments)]
pub fn rounds(
    suite: &Suite,
    rt: &Runtime,
    tr: &Tracer,
    tally: &mut Tally,
    mut recs: Option<&mut Vec<JobRec>>,
    seconds: f64,
    min_rounds: usize,
    cap_seconds: f64,
) -> Vec<Timed> {
    let start = Instant::now();
    let mut out = Vec::new();
    let mut stolen0 = cpu_ticks().map(|t| t.0);
    loop {
        let el = start.elapsed().as_secs_f64();
        if (el >= seconds && out.len() >= min_rounds) || el >= cap_seconds {
            break;
        }
        let ms = round(suite, rt, tr, tally, recs.as_deref_mut(), out.len());
        let stolen1 = cpu_ticks().map(|t| t.0);
        let stolen = stolen0.zip(stolen1).map(|(a, b)| b - a);
        stolen0 = stolen1;
        out.push(Timed { ms, stolen });
    }
    out
}
