//! The three workloads, their pinned configuration, and the episode
//! runner: one episode generates the mesh, builds the simulation, runs
//! the first step (the end of set-up), then a fixed number of warm
//! steps, checking every step.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

use nalu_core::{CheckpointCfg, Phase, Simulation, SolveError, SolverConfig, StepReport};
use parcomm::{Comm, Rank, TransportKind};
use sparse_kit::KernelPolicy;
use windmesh::generate::{box_mesh, uniform_spacing, BoxBc};
use windmesh::{Mesh, NrelCase};

use crate::probes;

/// Equations in the order of the paper's Fig. 6/7 bars.
pub const EQS: [&str; 3] = ["momentum", "continuity", "scalar"];

/// Warm steps every episode runs however short `--seconds` is; the
/// per-step counts are taken on the first.
const MIN_WARM_STEPS: usize = 1;

/// Warm steps per episode for about `seconds` of warm stepping. The
/// count is fixed by the arguments, never by the clock: with the rotor
/// turning, every step index does different work, so every run must
/// time the same steps.
pub fn warm_steps(w: Workload, seconds: f64) -> usize {
    // Measured warm-step seconds on the 2-core machine of README.md.
    let nominal = match w {
        Workload::Turbine => 1.7,
        Workload::Tunnel => 2.8,
        Workload::TurbineOps => 1.9,
    };
    ((seconds / nominal).round() as usize).max(MIN_WARM_STEPS)
}

/// A named benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// NREL 5-MW `SingleLow` turbine, overset, rotor turning every step;
    /// 2 ranks over the in-process transport.
    Turbine,
    /// Static empty wind tunnel on 1 rank with 2 compute threads.
    Tunnel,
    /// `Turbine` run as a production job: socket transport, telemetry
    /// streams and a checkpoint every step.
    TurbineOps,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Turbine, Workload::Tunnel, Workload::TurbineOps];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Turbine => "turbine",
            Workload::Tunnel => "tunnel",
            Workload::TurbineOps => "turbine_ops",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn ranks(self) -> usize {
        match self {
            Workload::Tunnel => 1,
            Workload::Turbine | Workload::TurbineOps => 2,
        }
    }

    /// Compute threads per rank. Ranks × threads stays at most 2, the
    /// core count of the machine the bounds were set on.
    pub fn threads_per_rank(self) -> usize {
        match self {
            Workload::Tunnel => 2,
            Workload::Turbine | Workload::TurbineOps => 1,
        }
    }

    fn transport(self) -> TransportKind {
        match self {
            Workload::TurbineOps => TransportKind::Socket,
            Workload::Turbine | Workload::Tunnel => TransportKind::Inproc,
        }
    }

    /// Whether telemetry streams and per-step checkpoints are on.
    pub fn is_ops(self) -> bool {
        self == Workload::TurbineOps
    }

    fn is_turbine(self) -> bool {
        self != Workload::Tunnel
    }

    /// The full solver configuration, every environment-defaulted field
    /// pinned (`Simulation::new` still falls back to `EXAWIND_TELEMETRY`
    /// and `EXAWIND_FAULTS` when these are off; `main` refuses to run
    /// with either set).
    pub fn config(self, ckpt_dir: Option<PathBuf>) -> SolverConfig {
        SolverConfig {
            telemetry: self.is_ops(),
            faults: None,
            transport: self.transport(),
            kernels: KernelPolicy::Auto,
            checkpoint: ckpt_dir.map(|dir| CheckpointCfg { every: 1, dir }),
            ..SolverConfig::default()
        }
    }
}

/// Problem size: the benchmark's, or a tiny one for the package's tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Bench,
    #[cfg_attr(not(test), allow(dead_code))]
    Tiny,
}

/// Uniform draw in `[0, 1)` from the seed (splitmix64 finaliser).
fn unit_draw(seed: u64) -> f64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// The workload's meshes for `seed`. The seed moves the problem without
/// changing its cost: the rotor starts at an azimuth within one step's
/// rotation, and the tunnel is shifted downstream by under one cell.
pub fn generate(w: Workload, size: Size, seed: u64, cfg: &SolverConfig) -> Vec<Mesh> {
    let draw = unit_draw(seed);
    if w.is_turbine() {
        let scale = match size {
            Size::Bench => 1e-3,
            Size::Tiny => 1e-4,
        };
        let mut meshes = windmesh::turbine::generate(NrelCase::SingleLow, scale).meshes;
        let step_angle = cfg.physics.rotor_omega * cfg.physics.dt;
        windmesh::motion::rotate_annulus(&mut meshes[1], draw * step_angle);
        meshes
    } else {
        let (nx, nyz) = match size {
            Size::Bench => (49, 24),
            Size::Tiny => (17, 9),
        };
        let x0 = draw * 630.0 / (nx - 1) as f64;
        vec![box_mesh(
            uniform_spacing(x0, x0 + 630.0, nx),
            uniform_spacing(-126.0, 126.0, nyz),
            uniform_spacing(-126.0, 126.0, nyz),
            BoxBc::wind_tunnel(),
        )]
    }
}

/// Deterministic per-step counts, totalled over ranks. Two runs of the
/// same step must agree on every field.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StepCounts {
    /// GMRES iterations per equation, in [`EQS`] order.
    pub iters: [u64; 3],
    pub msgs: u64,
    pub msg_bytes: u64,
    pub collectives: u64,
}

/// What one episode measured.
#[derive(Debug, Default, PartialEq)]
pub struct Episode {
    pub traced: bool,
    pub setup_s: f64,
    /// Peak resident memory of the process that ran the episode.
    pub peak_rss_mib: f64,
    /// Wall seconds of each warm step (rank 0).
    pub step_s: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    /// Per step, first step included.
    pub counts: Vec<StepCounts>,
    /// Per-layer samples of a traced episode, one value per name.
    pub layers: BTreeMap<&'static str, f64>,
    /// Per warm step `core.<eq>.<phase>_s` timings of a traced episode.
    pub phase_s: BTreeMap<&'static str, Vec<f64>>,
}

/// What one rank returns from an episode.
#[derive(Default)]
struct RankOut {
    setup_s: f64,
    step_s: Vec<f64>,
    /// Per step: the problem that failed it, if any (rank 0 judges).
    verdicts: Vec<Option<String>>,
    counts: Vec<StepCounts>,
    problems: Vec<String>,
    /// Rank 0's per-layer samples.
    layers: BTreeMap<&'static str, f64>,
    /// Per-layer counts totalled over ranks.
    layer_sums: BTreeMap<&'static str, f64>,
    phase_s: BTreeMap<&'static str, Vec<f64>>,
}

/// The `core.<eq>.<phase>_s` metric names, indexed `[eq][phase]` in
/// [`EQS`] × [`Phase::ALL`] order.
pub const PHASE_METRICS: [[&str; 5]; 3] = [
    [
        "core.momentum.graph_s",
        "core.momentum.local_s",
        "core.momentum.global_s",
        "core.momentum.setup_s",
        "core.momentum.solve_s",
    ],
    [
        "core.continuity.graph_s",
        "core.continuity.local_s",
        "core.continuity.global_s",
        "core.continuity.setup_s",
        "core.continuity.solve_s",
    ],
    [
        "core.scalar.graph_s",
        "core.scalar.local_s",
        "core.scalar.global_s",
        "core.scalar.setup_s",
        "core.scalar.solve_s",
    ],
];

/// Scratch directory of one episode under `root`, emptied first.
fn fresh_dir(root: &Path, w: Workload, episode: usize) -> std::io::Result<PathBuf> {
    let dir = root.join(format!("{}-{}-{episode}", w.name(), std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Run one episode of `w`: set-up, then `warm_steps` timed steps;
/// `scratch` holds the checkpoint and telemetry output
/// of `turbine_ops`, created fresh and removed afterwards.
pub fn run_episode(
    w: Workload,
    size: Size,
    seed: u64,
    warm_steps: usize,
    traced: bool,
    scratch: &Path,
    episode: usize,
) -> Episode {
    let mut ep = Episode {
        traced,
        ..Episode::default()
    };
    let dir = if w.is_ops() {
        match fresh_dir(scratch, w, episode) {
            Ok(d) => Some(d),
            Err(e) => {
                ep.attempted = 1;
                ep.failed = 1;
                ep.problems
                    .push(format!("cannot create scratch directory: {e}"));
                return ep;
            }
        }
    } else {
        None
    };
    let cfg = w.config(dir.as_ref().map(|d| d.join("ckpt")));

    let t0 = Instant::now();
    let meshes = generate(w, size, seed, &cfg);
    let generate_s = t0.elapsed().as_secs_f64();

    let outcome = catch_unwind(AssertUnwindSafe(|| {
        Comm::run_with(cfg.transport, w.ranks(), |rank| {
            rank_episode(
                rank,
                w,
                &cfg,
                &meshes,
                t0,
                warm_steps,
                traced,
                dir.as_deref(),
            )
        })
    }));
    if let Some(d) = &dir {
        let _ = std::fs::remove_dir_all(d);
        // Fails, as it should, while another episode still uses it.
        let _ = std::fs::remove_dir(scratch);
    }
    let outs = match outcome {
        Ok(outs) => outs,
        Err(_) => {
            ep.attempted = 1;
            ep.failed = 1;
            ep.problems.push("a rank panicked".into());
            return ep;
        }
    };

    let mut counts: Vec<StepCounts> = Vec::new();
    let mut layer_sums: BTreeMap<&'static str, f64> = BTreeMap::new();
    for out in &outs {
        if counts.is_empty() {
            counts = vec![StepCounts::default(); out.counts.len()];
        }
        for (acc, c) in counts.iter_mut().zip(&out.counts) {
            for (a, i) in acc.iters.iter_mut().zip(c.iters) {
                // Iterations are collective: every rank reports the same.
                *a = i;
            }
            acc.msgs += c.msgs;
            acc.msg_bytes += c.msg_bytes;
            acc.collectives += c.collectives;
        }
        for (&k, &v) in &out.layer_sums {
            *layer_sums.entry(k).or_default() += v;
        }
    }
    let mut outs = outs.into_iter();
    let r0 = outs.next().expect("at least one rank");
    ep.setup_s = r0.setup_s;
    ep.step_s = r0.step_s;
    ep.attempted = r0.verdicts.len() as u64;
    ep.failed = r0.verdicts.iter().filter(|v| v.is_some()).count() as u64;
    ep.problems = r0.verdicts.into_iter().flatten().collect();
    ep.problems.extend(r0.problems);
    for out in outs {
        ep.problems.extend(out.problems);
    }
    if ep.failed == 0 && !ep.problems.is_empty() {
        // An end-of-episode check failed (stream or checkpoint read
        // back): the last step's output is not trustworthy.
        ep.failed = 1;
    }
    ep.counts = counts;
    ep.layers = r0.layers;
    ep.layers.extend(layer_sums);
    if traced {
        ep.layers.insert("windmesh.generate_s", generate_s);
    }
    ep.phase_s = r0.phase_s;
    ep
}

/// One timed step with its deterministic counts (this rank's share).
fn timed_step(
    rank: &Rank,
    sim: &mut Simulation,
) -> (Result<StepReport, SolveError>, f64, StepCounts) {
    let before = rank.trace_snapshot().total();
    let t = Instant::now();
    let res = sim.try_step(rank);
    let secs = t.elapsed().as_secs_f64();
    let after = rank.trace_snapshot().total();
    let mut counts = StepCounts {
        msgs: after.msgs - before.msgs,
        msg_bytes: after.msg_bytes - before.msg_bytes,
        collectives: after.collectives - before.collectives,
        ..StepCounts::default()
    };
    if let Ok(r) = &res {
        for (c, eq) in counts.iters.iter_mut().zip(EQS) {
            *c = r.gmres_iters.get(eq).copied().unwrap_or(0) as u64;
        }
    }
    (res, secs, counts)
}

#[allow(clippy::too_many_arguments)]
fn rank_episode(
    rank: &Rank,
    w: Workload,
    cfg: &SolverConfig,
    meshes: &[Mesh],
    t0: Instant,
    warm_steps: usize,
    traced: bool,
    dir: Option<&Path>,
) -> RankOut {
    let me = rank.rank();
    let mut out = RankOut::default();
    let t_new = Instant::now();
    let mut sim = Simulation::new(rank, meshes.to_vec(), cfg.clone());
    let new_s = t_new.elapsed().as_secs_f64();
    let mut failed = false;

    for step in 0..=warm_steps {
        let (res, secs, counts) = timed_step(rank, &mut sim);
        if step == 0 {
            out.setup_s = t0.elapsed().as_secs_f64();
        } else {
            out.step_s.push(secs);
            if traced {
                if let Ok(r) = &res {
                    for (eq, names) in EQS.iter().zip(PHASE_METRICS) {
                        for (ph, name) in Phase::ALL.iter().zip(names) {
                            out.phase_s
                                .entry(name)
                                .or_default()
                                .push(r.timings.get(eq, *ph));
                        }
                    }
                }
            }
        }
        let verdict = if me == 0 {
            judge(w, cfg, &sim, &res)
        } else {
            None
        };
        out.verdicts.push(verdict);
        out.counts.push(counts);
        // Errors are collectively consistent: all ranks stop together.
        if res.is_err() {
            failed = true;
            break;
        }
    }

    if let Some(dir) = dir {
        probes::ops_outputs(
            rank,
            &mut sim,
            dir,
            traced,
            &mut out.problems,
            &mut out.layer_sums,
            &mut out.layers,
        );
    }
    if traced && !failed {
        out.layers.insert("core.new_s", new_s);
        if let Err(e) = probes::layers(
            rank,
            w,
            cfg,
            &sim,
            dir,
            &mut out.layers,
            &mut out.layer_sums,
        ) {
            out.problems.push(format!("per-layer probe failed: {e}"));
        }
    }
    out
}

/// Why a step failed, if it did: an error, a recovery, a final residual
/// above tolerance, or a field outside the workload's expected flow.
fn judge(
    w: Workload,
    cfg: &SolverConfig,
    sim: &Simulation,
    res: &Result<StepReport, SolveError>,
) -> Option<String> {
    let step = sim.steps_completed();
    let report = match res {
        Err(e) => return Some(format!("step {step}: {e}")),
        Ok(r) => r,
    };
    if !report.recoveries.is_empty() {
        return Some(format!(
            "step {step}: {} recovery attempt(s)",
            report.recoveries.len()
        ));
    }
    for (eq, &rel) in &report.final_rels {
        let tol = if eq == "continuity" {
            cfg.pressure_tol
        } else {
            cfg.momentum_tol
        };
        if rel.is_nan() || rel > tol {
            return Some(format!("step {step}: {eq} residual {rel:e} above {tol:e}"));
        }
    }
    let flow = if w.is_turbine() {
        check_wake(cfg, sim)
    } else {
        check_tunnel(cfg, sim)
    };
    flow.err().map(|e| format!("step {step}: {e}"))
}

/// Uniform inflow is an exact solution: on the nodes nearest the tunnel
/// axis the velocity must stay `(u_inflow, 0, 0)` and the pressure 0.
pub fn check_tunnel(cfg: &SolverConfig, sim: &Simulation) -> Result<(), String> {
    const TOL: f64 = 1e-9;
    let (mesh, state) = (sim.mesh(0), sim.state(0));
    let r_min = mesh
        .coords
        .iter()
        .map(|c| c[1].abs().max(c[2].abs()))
        .fold(f64::INFINITY, f64::min);
    let mut probed = 0;
    for (i, c) in mesh.coords.iter().enumerate() {
        if c[1].abs().max(c[2].abs()) > r_min + 1e-9 {
            continue;
        }
        probed += 1;
        let [u, v, wz] = state.vel[i];
        let p = state.p[i];
        if (u - cfg.physics.u_inflow).abs() > TOL
            || v.abs() > TOL
            || wz.abs() > TOL
            || p.abs() > TOL
        {
            return Err(format!(
                "centreline at x={:.1}: u=({u}, {v}, {wz}), p={p}",
                c[0]
            ));
        }
    }
    if probed == 0 {
        return Err("no centreline nodes".into());
    }
    Ok(())
}

/// One rotor radius downstream of the rotor, the mean axial velocity
/// inside the rotor radius must sit below the freestream.
pub fn check_wake(cfg: &SolverConfig, sim: &Simulation) -> Result<(), String> {
    let (mesh, state) = (sim.mesh(0), sim.state(0));
    let radius = windmesh::turbine::ROTOR_RADIUS;
    let x_probe = mesh
        .coords
        .iter()
        .map(|c| c[0])
        .min_by(|a, b| (a - radius).abs().total_cmp(&(b - radius).abs()))
        .ok_or("empty background mesh")?;
    let ux: Vec<f64> = mesh
        .coords
        .iter()
        .zip(&state.vel)
        .filter(|(c, _)| (c[0] - x_probe).abs() < 1e-9 && c[1].hypot(c[2]) < radius)
        .map(|(_, v)| v[0])
        .collect();
    let mean = crate::stats::mean(&ux).ok_or("no wake probe nodes")?;
    if mean.is_nan() || mean >= cfg.physics.u_inflow {
        return Err(format!(
            "no wake deficit at x={x_probe:.1}: mean u_x {mean} over {} nodes",
            ux.len()
        ));
    }
    Ok(())
}

/// `s` as a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_list<T>(xs: &[T], f: impl Fn(&T) -> String) -> String {
    format!("[{}]", xs.iter().map(f).collect::<Vec<_>>().join(","))
}

/// The static name under which `key` is reported, if it is one.
fn metric_name(key: &str) -> Result<&'static str, String> {
    crate::PER_LAYER
        .iter()
        .map(|(n, _)| *n)
        .find(|n| *n == key)
        .ok_or_else(|| format!("unknown metric {key:?}"))
}

impl Episode {
    /// One JSON line: how an episode process hands its record to the
    /// parent. Floats are printed with every digit, so the record reads
    /// back exactly.
    pub fn to_json(&self) -> String {
        let layers: Vec<String> = self
            .layers
            .iter()
            .map(|(k, v)| format!("{}:{v:?}", json_str(k)))
            .collect();
        let phases: Vec<String> = self
            .phase_s
            .iter()
            .map(|(k, v)| format!("{}:{}", json_str(k), json_list(v, |x| format!("{x:?}"))))
            .collect();
        format!(
            "{{\"traced\":{},\"setup_s\":{:?},\"peak_rss_mib\":{:?},\
             \"step_s\":{},\"attempted\":{},\"failed\":{},\"problems\":{},\"counts\":{},\
             \"layers\":{{{}}},\"phase_s\":{{{}}}}}",
            self.traced,
            self.setup_s,
            self.peak_rss_mib,
            json_list(&self.step_s, |x| format!("{x:?}")),
            self.attempted,
            self.failed,
            json_list(&self.problems, |p| json_str(p)),
            json_list(&self.counts, |c| format!(
                "[{},{},{},{},{},{}]",
                c.iters[0], c.iters[1], c.iters[2], c.msgs, c.msg_bytes, c.collectives
            )),
            layers.join(","),
            phases.join(","),
        )
    }

    /// Inverse of [`Episode::to_json`].
    pub fn from_json(line: &str) -> Result<Episode, String> {
        let json = telemetry::Json::parse(line)?;
        let obj = json.as_obj().ok_or("episode record is not an object")?;
        let get = |k: &str| obj.get(k).ok_or(format!("episode record lacks {k:?}"));
        let num = |k: &str| get(k)?.as_f64().ok_or(format!("{k:?} is not a number"));
        let count = |j: &telemetry::Json| j.as_u64().ok_or("count is not a whole number");
        let floats = |j: &telemetry::Json| -> Result<Vec<f64>, String> {
            j.as_arr()
                .ok_or("expected an array")?
                .iter()
                .map(|x| x.as_f64().ok_or_else(|| "expected a number".to_string()))
                .collect()
        };
        let mut ep = Episode {
            traced: get("traced")?.as_bool().ok_or("\"traced\" is not a bool")?,
            setup_s: num("setup_s")?,
            peak_rss_mib: num("peak_rss_mib")?,
            step_s: floats(get("step_s")?)?,
            attempted: count(get("attempted")?)?,
            failed: count(get("failed")?)?,
            ..Episode::default()
        };
        for p in get("problems")?
            .as_arr()
            .ok_or("\"problems\" is not an array")?
        {
            ep.problems
                .push(p.as_str().ok_or("problem is not a string")?.to_string());
        }
        for c in get("counts")?
            .as_arr()
            .ok_or("\"counts\" is not an array")?
        {
            let v: Vec<u64> = c
                .as_arr()
                .ok_or("step counts are not an array")?
                .iter()
                .map(count)
                .collect::<Result<_, _>>()?;
            let [m, c_, s, msgs, msg_bytes, collectives] = v[..] else {
                return Err("step counts need 6 fields".into());
            };
            ep.counts.push(StepCounts {
                iters: [m, c_, s],
                msgs,
                msg_bytes,
                collectives,
            });
        }
        for (k, v) in get("layers")?
            .as_obj()
            .ok_or("\"layers\" is not an object")?
        {
            let v = v.as_f64().ok_or(format!("{k} is not a number"))?;
            ep.layers.insert(metric_name(k)?, v);
        }
        for (k, v) in get("phase_s")?
            .as_obj()
            .ok_or("\"phase_s\" is not an object")?
        {
            ep.phase_s.insert(metric_name(k)?, floats(v)?);
        }
        Ok(ep)
    }
}
