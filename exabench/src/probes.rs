//! Per-layer probes of a traced episode, and the end-of-episode outputs
//! of `turbine_ops`. Every span here is timed in the benchmark's own
//! code around a call into one crate's public API; nothing inside the
//! program is instrumented.
//!
//! A probe that ends in a collective is preceded by a barrier, so rank
//! 0's clock measures the call and not the other rank's lateness. Errors
//! that are not collectively consistent are recorded, never returned
//! early, so no rank is left waiting in a collective.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use amg::{AmgPrecond, AmgReuse};
use distmat::{ParCsr, ParVector};
use krylov::Gmres;
use nalu_core::assemble::{fill_continuity, try_build_matrix};
use nalu_core::{Simulation, SolverConfig};
use parcomm::Rank;
use resilience::checkpoint::{self, MeshCheckpoint, SolverCheckpoint};

use crate::stats::median;
use crate::workload::Workload;

/// Calls per timed batch of the sub-millisecond probes.
const SPMV_REPS: u32 = 40;
const HALO_REPS: u32 = 200;
const ALLREDUCE_REPS: u32 = 200;
/// Repetitions of the overset update, reported as their median.
const OVERSET_REPS: usize = 3;

/// Layers a workload does not run report 0.
const OPS_LAYERS: [&str; 6] = [
    "resilience.ckpt_write_s",
    "resilience.ckpt_bytes",
    "resilience.ckpt_read_s",
    "telemetry.events_per_step",
    "telemetry.jsonl_bytes_per_step",
    "telemetry.write_s",
];

fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// End of a `turbine_ops` episode: write each rank's telemetry stream
/// and validate it read back, and read back the newest checkpoint
/// generation. With `traced`, also records the telemetry layer metrics.
pub fn ops_outputs(
    rank: &Rank,
    sim: &mut Simulation,
    dir: &Path,
    traced: bool,
    problems: &mut Vec<String>,
    layer_sums: &mut BTreeMap<&'static str, f64>,
    layers: &mut BTreeMap<&'static str, f64>,
) {
    let me = rank.rank();
    let steps = sim.steps_completed().max(1) as f64;

    let tel_dir = dir.join("telemetry");
    let path = tel_dir.join(format!("rank{me}.jsonl"));
    let path_s = path.to_string_lossy().into_owned();
    let t = Instant::now();
    let clock = sim.clock_tables();
    let mut stream = vec![telemetry::run_info_with_clock(rank.size(), clock)];
    stream.extend(sim.finish_telemetry(rank));
    let written =
        std::fs::create_dir_all(&tel_dir).and_then(|()| telemetry::write_jsonl(&path_s, &stream));
    let write_s = secs_since(t);
    match written {
        Err(e) => problems.push(format!("rank {me}: writing {path_s}: {e}")),
        Ok(()) => match telemetry::read_jsonl(&path_s) {
            Err(e) => problems.push(format!("rank {me}: telemetry stream unreadable: {e}")),
            Ok(events) => {
                if let Err(errs) = telemetry::validate_stream(&events) {
                    problems.push(format!(
                        "rank {me}: telemetry stream invalid: {}",
                        errs.join("; ")
                    ));
                }
            }
        },
    }
    if traced {
        let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
        layers.insert("telemetry.write_s", write_s);
        layer_sums.insert("telemetry.events_per_step", stream.len() as f64 / steps);
        layer_sums.insert("telemetry.jsonl_bytes_per_step", bytes as f64 / steps);
    }

    let ck_dir = dir.join("ckpt");
    let latest = checkpoint::read_manifest(&ck_dir).map(|m| m.and_then(|m| m.latest()));
    match latest {
        Ok(Some(generation)) => {
            if let Err(e) = checkpoint::read_rank(&ck_dir, me, rank.size(), generation) {
                problems.push(format!(
                    "rank {me}: checkpoint generation {generation}: {e}"
                ));
            }
        }
        Ok(None) => problems.push(format!("rank {me}: no checkpoint generation published")),
        Err(e) => problems.push(format!("rank {me}: checkpoint manifest: {e}")),
    }
}

/// Compulsory bytes of one CSR SpMV on this rank: values and column
/// indices once, row pointers once, `x` once per column, `y` once per
/// row. A computed figure, not a measured one.
fn spmv_bytes(a: &ParCsr) -> f64 {
    let word = std::mem::size_of::<f64>() as f64;
    let idx = std::mem::size_of::<usize>() as f64;
    [&a.diag, &a.offd]
        .iter()
        .map(|m| {
            m.nnz() as f64 * (word + idx) + (m.nrows() + 1) as f64 * idx + m.ncols() as f64 * word
        })
        .sum::<f64>()
        + a.diag.nrows() as f64 * word
}

/// The per-layer probes of a traced episode, on the simulation's state
/// after its last step. Rank 0's values go to `layers`; counts to be
/// totalled over ranks go to `layer_sums`.
pub fn layers(
    rank: &Rank,
    w: Workload,
    cfg: &SolverConfig,
    sim: &Simulation,
    dir: Option<&Path>,
    layers: &mut BTreeMap<&'static str, f64>,
    layer_sums: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    let me = rank.rank();

    // windmesh: one step's rotor motion and overset update, on copies.
    let mut overset_s = 0.0;
    if sim.n_meshes() > 1 && me == 0 {
        let mut meshes: Vec<_> = (0..sim.n_meshes()).map(|m| sim.mesh(m).clone()).collect();
        let d_angle = cfg.physics.rotor_omega * cfg.physics.dt;
        let samples: Vec<f64> = (0..OVERSET_REPS)
            .map(|_| {
                let t = Instant::now();
                for m in meshes.iter_mut().skip(1) {
                    windmesh::motion::rotate_annulus(m, d_angle);
                }
                black_box(windmesh::overset::assemble_overset(
                    &mut meshes,
                    cfg.overset_margin,
                ));
                secs_since(t)
            })
            .collect();
        overset_s = median(&samples).unwrap_or(0.0);
    }
    layers.insert("windmesh.overset_s", overset_s);

    // The warm continuity operator of the background mesh, rebuilt the
    // way a step builds it.
    let sys = sim.system(0);
    let graphs = sys
        .graphs
        .as_ref()
        .ok_or("no equation graphs after a step")?;
    let mut vals = graphs.con_vals.clone();
    let rhs = fill_continuity(
        rank,
        sim.mesh(0),
        &sys.dm,
        &graphs.continuity,
        &sys.tags,
        sim.state(0),
        &cfg.physics,
        &sys.owned_edges,
        &sys.owned_nodes,
        &mut vals,
    );
    let a =
        try_build_matrix(rank, &sys.dm, &graphs.continuity, &vals).map_err(|e| e.to_string())?;
    let b = rhs.assemble(rank);

    // amg: cold setup, then replay through a warm plan store.
    let a_cold = a.clone();
    rank.barrier();
    let c0 = rank.trace_snapshot().total().collectives;
    let t = Instant::now();
    let amg = AmgPrecond::setup(rank, a_cold, &cfg.amg).map_err(|e| e.to_string())?;
    layers.insert("amg.setup_cold_s", secs_since(t));
    let collectives = rank.trace_snapshot().total().collectives - c0;
    layers.insert("amg.setup_collectives", collectives as f64);
    let h = amg.hierarchy();
    layers.insert("amg.levels", h.level_stats.len() as f64);
    layers.insert("amg.grid_complexity", h.grid_complexity);
    layers.insert("amg.operator_complexity", h.operator_complexity);
    let mut store = AmgReuse::new();
    AmgPrecond::setup_with_reuse(rank, a.clone(), &cfg.amg, &mut store)
        .map_err(|e| e.to_string())?;
    let a_replay = a.clone();
    rank.barrier();
    let t = Instant::now();
    let replay = AmgPrecond::setup_with_reuse(rank, a_replay, &cfg.amg, &mut store)
        .map_err(|e| e.to_string())?;
    layers.insert("amg.setup_replay_s", secs_since(t));
    drop(replay);

    // krylov: the pressure solve with the cold hierarchy.
    let gmres = Gmres {
        restart: cfg.gmres_restart,
        max_iters: cfg.gmres_max_iters,
        tol: cfg.pressure_tol,
        ortho: cfg.ortho,
    };
    let mut x = ParVector::zeros(rank, sys.dm.dist.clone());
    rank.barrier();
    let t = Instant::now();
    let stats = gmres
        .solve(rank, &a, &b, &mut x, &amg)
        .map_err(|e| e.to_string())?;
    layers.insert("krylov.gmres_s", secs_since(t));
    layers.insert("krylov.gmres_iters", stats.iters as f64);

    // distmat: SpMV and its halo exchange alone.
    let xv = ParVector::from_fn(rank, sys.dm.dist.clone(), |g| 1.0 + (g % 7) as f64);
    rank.barrier();
    let t = Instant::now();
    for _ in 0..SPMV_REPS {
        black_box(a.spmv(rank, black_box(&xv)));
    }
    let spmv_ns = secs_since(t) * 1e9 / f64::from(SPMV_REPS);
    layers.insert("distmat.spmv_ns", spmv_ns);
    // bytes per ns == GB/s
    layers.insert("distmat.spmv_gbs", spmv_bytes(&a) / spmv_ns);
    rank.barrier();
    let t = Instant::now();
    for _ in 0..HALO_REPS {
        black_box(a.halo_exchange(rank, black_box(&xv.local)));
    }
    layers.insert(
        "distmat.halo_us",
        secs_since(t) * 1e6 / f64::from(HALO_REPS),
    );

    // parcomm: allreduce latency.
    rank.barrier();
    let t = Instant::now();
    for _ in 0..ALLREDUCE_REPS {
        black_box(rank.allreduce_sum_f64(black_box(1.0)));
    }
    layers.insert(
        "parcomm.allreduce_us",
        secs_since(t) * 1e6 / f64::from(ALLREDUCE_REPS),
    );

    // resilience: a checkpoint of the run's state, written, published
    // and read back in a fresh directory.
    match dir {
        Some(dir) if w.is_ops() => {
            checkpoint_probe(rank, sim, &dir.join("probe-ckpt"), layers, layer_sums)?
        }
        _ => {
            for name in OPS_LAYERS {
                layers.insert(name, 0.0);
            }
        }
    }
    Ok(())
}

fn checkpoint_probe(
    rank: &Rank,
    sim: &Simulation,
    dir: &Path,
    layers: &mut BTreeMap<&'static str, f64>,
    layer_sums: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    let (me, size) = (rank.rank(), rank.size());
    let flat3 = |v: &[[f64; 3]]| v.iter().flatten().copied().collect::<Vec<f64>>();
    let ck = SolverCheckpoint {
        step: sim.steps_completed() as u64,
        meshes: (0..sim.n_meshes())
            .map(|m| {
                let st = sim.state(m);
                MeshCheckpoint {
                    vel: flat3(&st.vel),
                    vel_old: flat3(&st.vel_old),
                    p: st.p.clone(),
                    dp: st.dp.clone(),
                    nut: st.nut.clone(),
                    nut_old: st.nut_old.clone(),
                }
            })
            .collect(),
        final_rels: Vec::new(),
        fault_counters: Vec::new(),
        amg_plans: Vec::new(),
    };
    let generation = 1;
    let mut errors = Vec::new();
    rank.barrier();
    let t = Instant::now();
    let bytes = checkpoint::write_rank(dir, me, size, generation, &ck).unwrap_or_else(|e| {
        errors.push(format!("write: {e}"));
        0
    });
    rank.barrier();
    if me == 0 {
        if let Err(e) = checkpoint::publish_generation(dir, size, generation) {
            errors.push(format!("publish: {e}"));
        }
    }
    layers.insert("resilience.ckpt_write_s", secs_since(t));
    layer_sums.insert("resilience.ckpt_bytes", bytes as f64);
    rank.barrier();
    let t = Instant::now();
    match checkpoint::read_rank(dir, me, size, generation) {
        Ok(back) if back == ck => {}
        Ok(_) => errors.push("read back differs from what was written".into()),
        Err(e) => errors.push(format!("read: {e}")),
    }
    layers.insert("resilience.ckpt_read_s", secs_since(t));
    if errors.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "rank {me}: checkpoint probe: {}",
            errors.join("; ")
        ))
    }
}
