//! The repository's benchmark: runs one workload of the real solver and
//! prints its end-to-end metrics (`--trace 0`) or its per-layer metrics
//! (`--trace 1`), ending with one JSON result line. See `README.md`.
//!
//! ```sh
//! cargo run --release --manifest-path exabench/Cargo.toml -- \
//!     --workload turbine --seed 1 --seconds 20 --trace 0
//! cargo run --release --manifest-path exabench/Cargo.toml -- --workload all
//! ```

mod probes;
mod stats;
mod workload;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use stats::{median, quartiles, relative_spread, result_line, Metric};
use workload::{run_episode, warm_steps, Episode, Size, Workload, PHASE_METRICS};

/// Environment variables that `Simulation::new` or the socket transport
/// would read behind the pinned configuration: telemetry and fault
/// injection fall back to them, and the worker variables turn the
/// socket workload into one rank of a launched job.
const REFUSED_ENV: [&str; 4] = [
    "EXAWIND_TELEMETRY",
    "EXAWIND_FAULTS",
    "EXAWIND_RANK",
    "EXAWIND_SIZE",
];

/// Episodes per run. Each pays set-up once; `setup_s` is their median.
/// Host load shifts the machine's speed from one ten-second stretch to
/// the next, so many short episodes give a steadier median than a few
/// long ones.
const EPISODES: usize = 5;
/// Episodes of a traced run: even ones untraced, odd ones traced, so
/// the run measures its own tracing overhead.
const TRACED_EPISODES: usize = 4;

/// Scratch directory for `turbine_ops` output, under the working
/// directory; each episode's subdirectory is removed when it ends.
const SCRATCH: &str = ".exabench_tmp";

/// `(name, unit)` of every end-to-end metric, in output order.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("step_s", "s"), ("peak_rss_mib", "MiB")];

/// `(name, unit)` of every per-layer metric, in output order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("windmesh.generate_s", "s"),
    ("windmesh.overset_s", "s"),
    ("core.new_s", "s"),
    ("core.momentum.graph_s", "s"),
    ("core.momentum.local_s", "s"),
    ("core.momentum.global_s", "s"),
    ("core.momentum.setup_s", "s"),
    ("core.momentum.solve_s", "s"),
    ("core.continuity.graph_s", "s"),
    ("core.continuity.local_s", "s"),
    ("core.continuity.global_s", "s"),
    ("core.continuity.setup_s", "s"),
    ("core.continuity.solve_s", "s"),
    ("core.scalar.graph_s", "s"),
    ("core.scalar.local_s", "s"),
    ("core.scalar.global_s", "s"),
    ("core.scalar.setup_s", "s"),
    ("core.scalar.solve_s", "s"),
    ("amg.setup_cold_s", "s"),
    ("amg.setup_replay_s", "s"),
    ("amg.levels", "count"),
    ("amg.grid_complexity", "ratio"),
    ("amg.operator_complexity", "ratio"),
    ("amg.setup_collectives", "count"),
    ("krylov.gmres_s", "s"),
    ("krylov.gmres_iters", "count"),
    ("krylov.momentum_iters_per_step", "count"),
    ("krylov.continuity_iters_per_step", "count"),
    ("krylov.scalar_iters_per_step", "count"),
    ("distmat.spmv_ns", "ns"),
    ("distmat.spmv_gbs", "GB/s-computed"),
    ("distmat.halo_us", "us"),
    ("parcomm.msgs_per_step", "count"),
    ("parcomm.msg_bytes_per_step", "bytes"),
    ("parcomm.collectives_per_step", "count"),
    ("parcomm.allreduce_us", "us"),
    ("resilience.ckpt_write_s", "s"),
    ("resilience.ckpt_bytes", "bytes"),
    ("resilience.ckpt_read_s", "s"),
    ("telemetry.events_per_step", "count"),
    ("telemetry.jsonl_bytes_per_step", "bytes"),
    ("telemetry.write_s", "s"),
    ("trace.step_s", "s"),
    ("trace.untraced_step_s", "s"),
    ("trace.overhead_s", "s"),
];

/// `krylov.<eq>_iters_per_step`, in [`EQS`] order.
const ITERS_PER_STEP: [&str; 3] = [
    "krylov.momentum_iters_per_step",
    "krylov.continuity_iters_per_step",
    "krylov.scalar_iters_per_step",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Set in an episode process: which episode of the run it is.
    episode: Option<usize>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20,
        trace: false,
        episode: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            "--episode" => {
                args.episode = Some(value()?.parse().map_err(|e| format!("--episode: {e}"))?);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Peak resident set (VmHWM) of this process in MiB.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Runs every workload in its own process (the compute-thread count is
/// fixed per process) and fails if any of them fails.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("exabench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in Workload::ALL {
        match child(&exe, w.name(), args).status() {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("exabench: workload {} failed ({s})", w.name());
                ok = false;
            }
            Err(e) => {
                eprintln!("exabench: cannot run workload {}: {e}", w.name());
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn failed_episode(problem: String) -> Episode {
    Episode {
        attempted: 1,
        failed: 1,
        problems: vec![problem],
        ..Episode::default()
    }
}

/// Outcome of all episodes of one run.
struct Run {
    episodes: Vec<Episode>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

/// The arguments that make `exe` run `workload` as the given args do.
fn child(exe: &Path, workload: &str, args: &Args) -> std::process::Command {
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }]);
    cmd
}

/// Episode `e` of a run, in the process of its own that this program
/// starts for it, so that its peak memory is its own and its counts
/// come from an independent run of the binary.
fn spawn_episode(exe: &Path, w: Workload, args: &Args, e: usize) -> Result<Episode, String> {
    let out = child(exe, w.name(), args)
        .args(["--episode", &e.to_string()])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|err| format!("cannot start episode process: {err}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    match stdout.lines().last() {
        Some(line) if out.status.success() => Episode::from_json(line),
        _ => Err(format!("episode process failed ({})", out.status)),
    }
}

/// Episodes in a run.
fn episode_count(trace: bool) -> usize {
    if trace {
        TRACED_EPISODES
    } else {
        EPISODES
    }
}

/// The episode an episode process runs.
fn episode(w: Workload, args: &Args, e: usize) -> Episode {
    let warm = warm_steps(w, args.seconds as f64 / episode_count(args.trace) as f64);
    let mut ep = run_episode(
        w,
        Size::Bench,
        args.seed,
        warm,
        args.trace && e % 2 == 1,
        Path::new(SCRATCH),
        e,
    );
    match peak_rss_mib() {
        Some(mib) => ep.peak_rss_mib = mib,
        None => ep
            .problems
            .push("cannot read VmHWM from /proc/self/status".into()),
    }
    ep
}

/// Run every episode and cross-check their deterministic counts: every
/// episode repeats the same steps, so a count that differs from the
/// first episode's fails that step.
fn run(w: Workload, args: &Args) -> Run {
    let episodes: Vec<Episode> = match std::env::current_exe() {
        Err(e) => vec![failed_episode(format!("cannot locate own executable: {e}"))],
        Ok(exe) => (0..episode_count(args.trace))
            .map(|e| spawn_episode(&exe, w, args, e).unwrap_or_else(failed_episode))
            .collect(),
    };

    let mut run = Run {
        episodes: Vec::new(),
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
    };
    let reference = &episodes[0].counts;
    let mut amg_shape: Option<Vec<f64>> = None;
    for (e, ep) in episodes.iter().enumerate() {
        run.attempted += ep.attempted;
        run.failed += ep.failed;
        run.problems
            .extend(ep.problems.iter().map(|p| format!("episode {e}: {p}")));
        for (k, (c, r)) in ep.counts.iter().zip(reference).enumerate() {
            if c != r {
                run.failed += 1;
                run.problems.push(format!(
                    "episode {e}: step {k} counts {c:?} differ from episode 0's {r:?}"
                ));
            }
        }
        if ep.traced {
            let shape: Vec<f64> = [
                "amg.levels",
                "amg.grid_complexity",
                "amg.operator_complexity",
            ]
            .iter()
            .filter_map(|k| ep.layers.get(k).copied())
            .collect();
            match &amg_shape {
                None => amg_shape = Some(shape),
                Some(s) if *s != shape => {
                    run.failed += 1;
                    run.problems.push(format!(
                        "episode {e}: AMG shape {shape:?} differs from {s:?}"
                    ));
                }
                Some(_) => {}
            }
        }
    }
    run.episodes = episodes;
    run
}

/// `median (q1, q3, spread, n)` of a sample, for the human-readable lines.
fn describe(xs: &[f64], unit: &str, what: &str) -> String {
    let m = median(xs).unwrap_or(f64::NAN);
    match (quartiles(xs), relative_spread(xs)) {
        (Some((q1, q3)), Some(spread)) => format!(
            "{m:.4} {unit} (q1 {q1:.4}, q3 {q3:.4}, spread {spread:.3}, n={} {what})",
            xs.len()
        ),
        _ => format!("{m:.4} {unit} (n={} {what})", xs.len()),
    }
}

fn end_to_end_metrics(run: &Run) -> Result<Vec<Metric>, String> {
    let setups: Vec<f64> = run.episodes.iter().map(|e| e.setup_s).collect();
    let steps: Vec<f64> = run
        .episodes
        .iter()
        .flat_map(|e| e.step_s.iter().copied())
        .collect();
    for (e, ep) in run.episodes.iter().enumerate() {
        let steps: Vec<String> = ep.step_s.iter().map(|s| format!("{s:.4}")).collect();
        println!(
            "episode {e}: setup {:.4} s, warm steps [{}] s, peak {:.1} MiB",
            ep.setup_s,
            steps.join(", "),
            ep.peak_rss_mib
        );
    }
    println!("setup_s      {}", describe(&setups, "s", "episodes"));
    let peaks: Vec<f64> = run.episodes.iter().map(|e| e.peak_rss_mib).collect();
    println!("step_s       {}", describe(&steps, "s", "warm steps"));
    println!(
        "peak_rss_mib {}",
        describe(&peaks, "MiB", "episode processes")
    );
    let values = [
        median(&setups).ok_or("no set-up completed")?,
        median(&steps).ok_or("no warm step completed")?,
        median(&peaks).ok_or("no episode completed")?,
    ];
    Ok(END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, unit, value })
        .collect())
}

fn per_layer_metrics(run: &Run) -> Result<Vec<Metric>, String> {
    let traced: Vec<&Episode> = run.episodes.iter().filter(|e| e.traced).collect();
    let untraced: Vec<&Episode> = run.episodes.iter().filter(|e| !e.traced).collect();
    let mut values: BTreeMap<&str, f64> = BTreeMap::new();

    // Per-episode probe values: median over traced episodes.
    let names: Vec<&str> = traced
        .iter()
        .flat_map(|e| e.layers.keys().copied())
        .collect();
    for name in names {
        let xs: Vec<f64> = traced
            .iter()
            .filter_map(|e| e.layers.get(name).copied())
            .collect();
        values.insert(name, median(&xs).unwrap_or(0.0));
    }
    // Fig. 6/7 bars: median over every traced warm step.
    for name in PHASE_METRICS.iter().flatten() {
        let xs: Vec<f64> = traced
            .iter()
            .flat_map(|e| e.phase_s.get(name).into_iter().flatten().copied())
            .collect();
        values.insert(
            name,
            median(&xs).ok_or(format!("no traced warm step for {name}"))?,
        );
    }
    // Deterministic counts: the first warm step, which every episode runs.
    let first_warm = run.episodes[0]
        .counts
        .get(1)
        .ok_or("no warm step for counts")?;
    for (i, name) in ITERS_PER_STEP.into_iter().enumerate() {
        values.insert(name, first_warm.iters[i] as f64);
    }
    values.insert("parcomm.msgs_per_step", first_warm.msgs as f64);
    values.insert("parcomm.msg_bytes_per_step", first_warm.msg_bytes as f64);
    values.insert(
        "parcomm.collectives_per_step",
        first_warm.collectives as f64,
    );
    // Tracing overhead: traced minus untraced warm-step median.
    let steps = |eps: &[&Episode]| -> Vec<f64> {
        eps.iter().flat_map(|e| e.step_s.iter().copied()).collect()
    };
    let traced_step = median(&steps(&traced)).ok_or("no traced warm step")?;
    let untraced_step = median(&steps(&untraced)).ok_or("no untraced warm step")?;
    values.insert("trace.step_s", traced_step);
    values.insert("trace.untraced_step_s", untraced_step);
    values.insert("trace.overhead_s", traced_step - untraced_step);

    let mut metrics = Vec::new();
    for &(name, unit) in PER_LAYER {
        let value = *values
            .get(name)
            .ok_or(format!("per-layer metric {name} not measured"))?;
        println!("{name:34} {value:.6} {unit}");
        metrics.push(Metric { name, unit, value });
    }
    Ok(metrics)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("exabench: {e}");
            eprintln!("usage: exabench --workload <turbine|tunnel|turbine_ops|all> --seed <n> --seconds <n> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    if let Some(var) = REFUSED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!("exabench: refusing to run with {var} set: it would change the pinned workload");
        return ExitCode::from(2);
    }
    if args.workload == "all" {
        return run_all(&args);
    }
    let Some(w) = Workload::parse(&args.workload) else {
        eprintln!("exabench: unknown workload {:?}", args.workload);
        return ExitCode::from(2);
    };
    // The rayon pool reads this once, at its first use; nothing has run
    // on it yet.
    std::env::set_var("RAYON_NUM_THREADS", w.threads_per_rank().to_string());

    if let Some(e) = args.episode {
        println!("{}", episode(w, &args, e).to_json());
        return ExitCode::SUCCESS;
    }
    println!(
        "exabench {}: seed {}, {} rank(s) x {} thread(s), {} s measured, {}",
        w.name(),
        args.seed,
        w.ranks(),
        w.threads_per_rank(),
        args.seconds,
        if args.trace { "traced" } else { "untraced" }
    );
    let run = run(w, &args);
    let metrics = if args.trace {
        per_layer_metrics(&run)
    } else {
        end_to_end_metrics(&run)
    };
    let mut problems = run.problems;
    let metrics = metrics.unwrap_or_else(|e| {
        problems.push(e);
        Vec::new()
    });
    let finite = metrics.iter().all(|m| m.value.is_finite());
    if !finite {
        problems.push("a metric is not finite".into());
    }
    println!("fail_frac    {}/{} steps", run.failed, run.attempted);
    for p in &problems {
        println!("FAILED: {p}");
    }
    let correct = problems.is_empty() && run.failed == 0;
    let printable: Vec<Metric> = if finite { metrics } else { Vec::new() };
    println!(
        "{}",
        result_line(correct, run.attempted.max(1), run.failed, &printable)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parcomm::Comm;
    use workload::{check_tunnel, check_wake, generate};

    fn listed(json: &telemetry::Json, key: &str) -> Vec<(String, String)> {
        json.as_obj().expect("object")[key]
            .as_arr()
            .expect("array")
            .iter()
            .map(|m| {
                let m = m.as_obj().expect("metric object");
                (
                    m["name"].as_str().unwrap().to_string(),
                    m["unit"].as_str().unwrap().to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn metric_names_are_valid_and_unique() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        for n in &names {
            assert!(stats::valid_metric_name(n), "bad metric name {n:?}");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate metric name");
        for name in PHASE_METRICS.iter().flatten().chain(&ITERS_PER_STEP) {
            assert!(
                PER_LAYER.iter().any(|(n, _)| n == name),
                "{name} not listed"
            );
        }
    }

    #[test]
    fn benchmark_json_describes_this_benchmark() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the package");
        let json = telemetry::Json::parse(&text).expect("BENCHMARK.json parses");
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed(&json, "end_to_end"), own(END_TO_END));
        assert_eq!(listed(&json, "per_layer"), own(PER_LAYER));
        let workloads: Vec<&str> = json.as_obj().unwrap()["workloads"]
            .as_arr()
            .unwrap()
            .iter()
            .map(|w| w.as_obj().unwrap()["name"].as_str().unwrap())
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn arguments_parse_and_reject_garbage() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv("--workload tunnel --seed 9 --seconds 5 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("tunnel", 9, 5, true)
        );
        assert!(parse_args(&argv("--trace 2")).is_err());
        assert!(parse_args(&argv("--seconds 0")).is_err());
        assert!(parse_args(&argv("--seed")).is_err());
        assert!(parse_args(&argv("--bogus 1")).is_err());
    }

    #[test]
    fn seeds_give_the_same_meshes_and_move_the_problem() {
        let cfg = Workload::Tunnel.config(None);
        let coords = |seed| {
            generate(Workload::Tunnel, Size::Tiny, seed, &cfg)[0]
                .coords
                .clone()
        };
        assert_eq!(coords(3), coords(3));
        assert_ne!(coords(3), coords(4));
    }

    #[test]
    fn episode_records_read_back_exactly() {
        let mut ep = Episode {
            traced: true,
            setup_s: 1.0 / 3.0,
            peak_rss_mib: 0.1 + 0.2,
            step_s: vec![1.5, 2.0e-7],
            attempted: 3,
            failed: 1,
            problems: vec!["step 2: \"quoted\"\\ and\nnewline".into()],
            counts: vec![workload::StepCounts {
                iters: [60, 213, 13],
                msgs: 11622,
                msg_bytes: 27643144,
                collectives: 4397,
            }],
            ..Episode::default()
        };
        ep.layers.insert("amg.levels", 4.0);
        ep.phase_s.insert("core.scalar.solve_s", vec![0.02, 0.03]);
        assert_eq!(Episode::from_json(&ep.to_json()), Ok(ep));
        assert!(Episode::from_json("{\"traced\": true}").is_err());
    }

    /// Warm steps of the tiny episodes: more than one, so that a check
    /// or count that breaks only on a later step shows.
    const TINY_WARM: usize = 2;

    /// A tiny traced episode of `w` passes every check and measures
    /// every per-episode probe.
    fn tiny_episode_passes(w: Workload) {
        let ep = run_episode(w, Size::Tiny, 7, TINY_WARM, true, Path::new(SCRATCH), 0);
        assert!(ep.problems.is_empty(), "{}: {:?}", w.name(), ep.problems);
        assert_eq!((ep.attempted, ep.failed), (1 + TINY_WARM as u64, 0));
        assert_eq!(ep.step_s.len(), TINY_WARM);
        assert_eq!(ep.counts.len(), 1 + TINY_WARM);
        for (name, _) in PER_LAYER {
            let elsewhere = name.starts_with("trace.")
                || name.ends_with("_per_step") && !name.starts_with("telemetry.")
                || PHASE_METRICS.iter().flatten().any(|n| n == name);
            assert!(
                elsewhere || ep.layers.contains_key(name),
                "{}: {name} missing",
                w.name()
            );
        }
        let ops = ep.layers["resilience.ckpt_bytes"] > 0.0;
        assert_eq!(
            ops,
            w.is_ops(),
            "{}: checkpoint probe ran on the wrong workload",
            w.name()
        );
    }

    #[test]
    fn tiny_turbine_passes_its_checks() {
        tiny_episode_passes(Workload::Turbine);
    }

    #[test]
    fn tiny_tunnel_passes_its_checks() {
        tiny_episode_passes(Workload::Tunnel);
    }

    #[test]
    fn tiny_turbine_ops_passes_its_checks() {
        tiny_episode_passes(Workload::TurbineOps);
    }

    #[test]
    fn flow_checks_reject_the_wrong_flow() {
        for w in [Workload::Tunnel, Workload::Turbine] {
            let cfg = w.config(None);
            let meshes = generate(w, Size::Tiny, 1, &cfg);
            let verdicts = Comm::run_with(cfg.transport, 1, |rank| {
                let mut sim = nalu_core::Simulation::new(rank, meshes.clone(), cfg.clone());
                sim.step(rank);
                // Judged against a freestream the run did not have.
                let mut wrong = cfg.clone();
                wrong.physics.u_inflow = if w == Workload::Tunnel { 9.0 } else { 0.0 };
                let check = if w == Workload::Tunnel {
                    check_tunnel
                } else {
                    check_wake
                };
                (check(&cfg, &sim), check(&wrong, &sim))
            });
            let (right, wrong) = &verdicts[0];
            assert!(right.is_ok(), "{}: {right:?}", w.name());
            assert!(wrong.is_err(), "{}: check passed a wrong flow", w.name());
        }
    }
}
