//! Kernel-perf trajectory recording and noise-aware regression diffing
//! (the `exawind-perf` bin).
//!
//! A *trajectory* file (`results/trajectory.jsonl`) is an append-only
//! JSONL stream of telemetry events: each recorded run contributes one
//! `run` header (threads + git commit + kernel policy) followed by one `bench` line per
//! hot kernel, where the benched quantity is **nanoseconds per kernel
//! call** summed over ranks (min/median/mean over repetitions). Reusing
//! the telemetry schema means `validate_telemetry` validates trajectories
//! for free, and legacy `BENCH_*.json` files (bench lines with no `run`
//! header) parse as a single anonymous run group.
//!
//! Regression policy: timings on a noisy 1-core container jitter by
//! integer factors, so the diff compares **min-of-N** per kernel — the
//! min is the least noisy order statistic of a right-skewed timing
//! distribution — against a relative tolerance. Kernels present on only
//! one side are reported but never fail the gate (instrumentation
//! legitimately grows between PRs).

use std::collections::BTreeMap;

use nalu_core::{FaultPlan, Simulation, SolverConfig};
use parcomm::Comm;
use telemetry::Event;
use windmesh::generate::{box_mesh, uniform_spacing, BoxBc};
use windmesh::NrelCase;

/// Workloads `exawind-perf record` knows how to run. `rap` runs the
/// quickstart mesh with three Picard iterations under an armed fault
/// plan that never fires, which bypasses the continuity preconditioner
/// cache, so the second and third continuity re-solves set up fresh and
/// replay recorded Galerkin SpGEMM plans (`spgemm_numeric`) instead of
/// rebuilding structure.
pub const WORKLOADS: [&str; 3] = ["quickstart", "turbine", "rap"];

/// Nanoseconds-per-call samples of one kernel in one recorded run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct BenchRecord {
    pub min_ns: u64,
    pub median_ns: u64,
    pub mean_ns: u64,
    pub samples: u64,
}

/// One recorded run: the `run` header plus its kernel records.
#[derive(Clone, Debug, Default)]
pub struct BenchGroup {
    pub threads: Option<u64>,
    /// Kernel policy label from the `run` header (`auto`|`csr`|`sellcs`);
    /// `None` for legacy groups recorded before the policy existed.
    pub kernel_policy: Option<String>,
    pub git_commit: Option<String>,
    /// Keyed by bench name (`workload/kernel`).
    pub kernels: BTreeMap<String, BenchRecord>,
}

/// Split an event stream into run groups: a `run` event opens a new
/// group, `bench` events join the current one. Leading bench lines with
/// no header (legacy `BENCH_*.json`) form one anonymous group.
pub fn group_runs(events: &[Event]) -> Vec<BenchGroup> {
    let mut groups: Vec<BenchGroup> = Vec::new();
    for ev in events {
        match ev {
            Event::Run { threads, kernel_policy, git_commit, .. } => {
                groups.push(BenchGroup {
                    threads: Some(*threads as u64),
                    kernel_policy: Some(kernel_policy.clone()),
                    git_commit: git_commit.clone(),
                    kernels: BTreeMap::new(),
                });
            }
            Event::Bench { bench, mean_ns, median_ns, min_ns, samples, threads, git_commit } => {
                if groups.is_empty() {
                    groups.push(BenchGroup {
                        threads: *threads,
                        kernel_policy: None,
                        git_commit: git_commit.clone(),
                        kernels: BTreeMap::new(),
                    });
                }
                let g = groups.last_mut().unwrap();
                g.kernels.insert(
                    bench.clone(),
                    BenchRecord {
                        min_ns: *min_ns,
                        median_ns: *median_ns,
                        mean_ns: *mean_ns,
                        samples: *samples,
                    },
                );
            }
            _ => {}
        }
    }
    groups.retain(|g| !g.kernels.is_empty());
    groups
}

/// Synthetic baseline: per-kernel **min over all groups** (the best time
/// any recorded run achieved). Restricting to groups whose thread count
/// matches `threads` (when given) keeps 1-thread and 4-thread records
/// from gating each other; the same applies to `kernel_policy`, so a
/// `sellcs` run is never gated against `csr` history (legacy groups with
/// no recorded policy still participate everywhere).
pub fn baseline_over(
    groups: &[BenchGroup],
    threads: Option<u64>,
    kernel_policy: Option<&str>,
) -> BenchGroup {
    let mut base = BenchGroup {
        threads,
        kernel_policy: kernel_policy.map(str::to_string),
        git_commit: None,
        kernels: BTreeMap::new(),
    };
    for g in groups {
        if threads.is_some() && g.threads.is_some() && g.threads != threads {
            continue;
        }
        if kernel_policy.is_some()
            && g.kernel_policy.is_some()
            && g.kernel_policy.as_deref() != kernel_policy
        {
            continue;
        }
        for (name, rec) in &g.kernels {
            base.kernels
                .entry(name.clone())
                .and_modify(|b| {
                    if rec.min_ns < b.min_ns {
                        *b = *rec;
                    }
                })
                .or_insert(*rec);
        }
    }
    base
}

/// One kernel's comparison row.
#[derive(Clone, Debug)]
pub struct DiffRow {
    pub bench: String,
    pub base_min_ns: u64,
    pub cur_min_ns: u64,
    /// `cur/base`; >1 means slower.
    pub ratio: f64,
    pub regressed: bool,
}

/// Outcome of diffing a current run against a baseline.
#[derive(Clone, Debug, Default)]
pub struct DiffReport {
    pub rows: Vec<DiffRow>,
    /// Bench names present on only one side (informational).
    pub only_in_baseline: Vec<String>,
    pub only_in_current: Vec<String>,
}

impl DiffReport {
    pub fn regressions(&self) -> usize {
        self.rows.iter().filter(|r| r.regressed).count()
    }

    /// Render the comparison as an aligned table.
    pub fn render(&self, tol: f64) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<32} {:>12} {:>12} {:>8}  status (tol {tol}x)",
            "kernel", "base min ns", "cur min ns", "ratio"
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{:<32} {:>12} {:>12} {:>7.2}x  {}",
                r.bench,
                r.base_min_ns,
                r.cur_min_ns,
                r.ratio,
                if r.regressed { "REGRESSION" } else { "ok" }
            );
        }
        for name in &self.only_in_baseline {
            let _ = writeln!(out, "{name:<32} (baseline only — not gated)");
        }
        for name in &self.only_in_current {
            let _ = writeln!(out, "{name:<32} (new kernel — not gated)");
        }
        out
    }
}

/// Compare `current` against `baseline`: a kernel regresses when its
/// current min exceeds `tol ×` its baseline min.
pub fn diff_groups(current: &BenchGroup, baseline: &BenchGroup, tol: f64) -> DiffReport {
    let mut report = DiffReport::default();
    for (name, cur) in &current.kernels {
        match baseline.kernels.get(name) {
            Some(base) => {
                let ratio = if base.min_ns > 0 {
                    cur.min_ns as f64 / base.min_ns as f64
                } else {
                    1.0
                };
                report.rows.push(DiffRow {
                    bench: name.clone(),
                    base_min_ns: base.min_ns,
                    cur_min_ns: cur.min_ns,
                    ratio,
                    regressed: ratio > tol,
                });
            }
            None => report.only_in_current.push(name.clone()),
        }
    }
    for name in baseline.kernels.keys() {
        if !current.kernels.contains_key(name) {
            report.only_in_baseline.push(name.clone());
        }
    }
    report
}

/// Run one workload once and return **per-kernel ns-per-call** (seconds
/// and calls summed over ranks).
fn run_workload_once(workload: &str) -> BTreeMap<String, f64> {
    let events = match workload {
        "quickstart" => {
            Comm::run(2, |rank| {
                let mesh = box_mesh(
                    uniform_spacing(0.0, 630.0, 7),
                    uniform_spacing(-126.0, 126.0, 5),
                    uniform_spacing(-126.0, 126.0, 5),
                    BoxBc::wind_tunnel(),
                );
                let cfg = SolverConfig {
                    telemetry: true,
                    picard_iters: 1,
                    ..SolverConfig::default()
                };
                let mut sim = Simulation::new(rank, vec![mesh], cfg);
                sim.step(rank);
                sim.finish_telemetry(rank)
            })
        }
        "turbine" => {
            let tm = windmesh::turbine::generate(NrelCase::SingleLow, 1e-4);
            let meshes = tm.meshes;
            Comm::run(2, move |rank| {
                let cfg = SolverConfig {
                    telemetry: true,
                    picard_iters: 1,
                    ..SolverConfig::default()
                };
                let mut sim = Simulation::new(rank, meshes.clone(), cfg);
                sim.step(rank);
                sim.finish_telemetry(rank)
            })
        }
        "rap" => {
            Comm::run(2, |rank| {
                let mesh = box_mesh(
                    uniform_spacing(0.0, 630.0, 7),
                    uniform_spacing(-126.0, 126.0, 5),
                    uniform_spacing(-126.0, 126.0, 5),
                    BoxBc::wind_tunnel(),
                );
                let cfg = SolverConfig {
                    telemetry: true,
                    // Three Picard iterations: the first records Galerkin
                    // SpGEMM plans, the later two replay them numerically
                    // (the armed plan keeps the AMG cache out of the way).
                    picard_iters: 3,
                    faults: Some(
                        FaultPlan::parse("coarsen-stall@no-such-phase:1")
                            .expect("valid fault plan"),
                    ),
                    ..SolverConfig::default()
                };
                let mut sim = Simulation::new(rank, vec![mesh], cfg);
                sim.step(rank);
                sim.finish_telemetry(rank)
            })
        }
        other => panic!("unknown workload {other:?} (expected one of {WORKLOADS:?})"),
    };
    let mut secs: BTreeMap<String, f64> = BTreeMap::new();
    let mut calls: BTreeMap<String, u64> = BTreeMap::new();
    for ev in events.into_iter().flatten() {
        if let Event::KernelPerf { kernel, calls: c, secs: s, .. } = ev {
            *secs.entry(kernel.clone()).or_insert(0.0) += s;
            *calls.entry(kernel).or_insert(0) += c;
        }
    }
    secs.into_iter()
        .map(|(k, s)| {
            let c = calls[&k].max(1);
            (k, s * 1e9 / c as f64)
        })
        .collect()
}

/// Run `workload` `reps` times and summarize each kernel's ns-per-call
/// as one [`Event::Bench`] named `workload/kernel`.
pub fn record_workload(workload: &str, reps: usize) -> Vec<Event> {
    let reps = reps.max(1);
    let mut samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for _ in 0..reps {
        for (kernel, ns) in run_workload_once(workload) {
            samples.entry(kernel).or_default().push(ns);
        }
    }
    let threads = Some(telemetry::configured_threads() as u64);
    let git_commit = telemetry::git_commit();
    samples
        .into_iter()
        .map(|(kernel, mut ns)| {
            ns.sort_by(|a, b| a.total_cmp(b));
            let mean = ns.iter().sum::<f64>() / ns.len() as f64;
            Event::Bench {
                bench: format!("{workload}/{kernel}"),
                mean_ns: mean as u64,
                median_ns: ns[ns.len() / 2] as u64,
                min_ns: ns[0] as u64,
                samples: ns.len() as u64,
                threads,
                git_commit: git_commit.clone(),
            }
        })
        .collect()
}

/// Record every workload in [`WORKLOADS`], prefixed by a `run` header:
/// the unit `exawind-perf record` appends to the trajectory.
pub fn record_all(reps: usize) -> Vec<Event> {
    let mut run = telemetry::run_info(2);
    if let Event::Run { kernel_policy, .. } = &mut run {
        // run_info reports the raw env string; normalize through the
        // parser so the trajectory key matches what the kernels ran.
        *kernel_policy = sparse_kit::KernelPolicy::from_env().label().to_string();
    }
    let mut events = vec![run];
    for w in WORKLOADS {
        events.extend(record_workload(w, reps));
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bench(name: &str, min_ns: u64) -> Event {
        Event::Bench {
            bench: name.to_string(),
            mean_ns: min_ns + 10,
            median_ns: min_ns + 5,
            min_ns,
            samples: 3,
            threads: Some(1),
            git_commit: Some("abc".into()),
        }
    }

    fn run_header(threads: usize) -> Event {
        run_header_with_policy(threads, "auto")
    }

    fn run_header_with_policy(threads: usize, policy: &str) -> Event {
        Event::Run {
            ranks: 2,
            threads,
            transport: "inproc".into(),
            kernel_policy: policy.into(),
            git_commit: Some("abc".into()),
            clock_offsets: None,
            clock_rtts: None,
        }
    }

    #[test]
    fn groups_split_on_run_headers_and_legacy_files_form_one_group() {
        let evs = vec![
            run_header(1),
            bench("quickstart/spmv_csr", 100),
            bench("quickstart/spgemm", 900),
            run_header(4),
            bench("quickstart/spmv_csr", 60),
        ];
        let groups = group_runs(&evs);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].kernels.len(), 2);
        assert_eq!(groups[1].threads, Some(4));
        // Legacy: bench lines only → one anonymous group.
        let legacy = group_runs(&[bench("amg_setup/direct", 5), bench("spgemm/ap", 7)]);
        assert_eq!(legacy.len(), 1);
        assert_eq!(legacy[0].kernels.len(), 2);
    }

    #[test]
    fn identical_runs_pass_and_inflated_kernel_regresses() {
        let base = group_runs(&[run_header(1), bench("q/spmv_csr", 100), bench("q/spgemm", 900)])
            .remove(0);
        // Clean back-to-back run: same timings → no regression at any
        // reasonable tolerance.
        let clean = diff_groups(&base, &base, 1.5);
        assert_eq!(clean.regressions(), 0, "{}", clean.render(1.5));
        // Artificially slowed kernel: 100 ns → 1000 ns must trip a 1.5×
        // gate (the acceptance-criteria scenario).
        let slowed =
            group_runs(&[run_header(1), bench("q/spmv_csr", 1000), bench("q/spgemm", 900)])
                .remove(0);
        let report = diff_groups(&slowed, &base, 1.5);
        assert_eq!(report.regressions(), 1, "{}", report.render(1.5));
        let row = report.rows.iter().find(|r| r.bench == "q/spmv_csr").unwrap();
        assert!(row.regressed && (row.ratio - 10.0).abs() < 1e-9);
        assert!(report.render(1.5).contains("REGRESSION"));
    }

    #[test]
    fn missing_kernels_warn_but_do_not_gate() {
        let base = group_runs(&[run_header(1), bench("q/old_kernel", 50)]).remove(0);
        let cur = group_runs(&[run_header(1), bench("q/new_kernel", 50)]).remove(0);
        let report = diff_groups(&cur, &base, 2.0);
        assert_eq!(report.regressions(), 0);
        assert_eq!(report.only_in_baseline, vec!["q/old_kernel"]);
        assert_eq!(report.only_in_current, vec!["q/new_kernel"]);
    }

    #[test]
    fn baseline_takes_per_kernel_min_filtered_by_threads() {
        let groups = group_runs(&[
            run_header(1),
            bench("q/spmv_csr", 100),
            run_header(1),
            bench("q/spmv_csr", 80),
            run_header(4),
            bench("q/spmv_csr", 30),
        ]);
        let b1 = baseline_over(&groups, Some(1), None);
        assert_eq!(b1.kernels["q/spmv_csr"].min_ns, 80);
        let any = baseline_over(&groups, None, None);
        assert_eq!(any.kernels["q/spmv_csr"].min_ns, 30);
    }

    #[test]
    fn baseline_filters_by_kernel_policy_but_keeps_legacy_groups() {
        let groups = group_runs(&[
            run_header_with_policy(1, "csr"),
            bench("q/spmv_csr", 100),
            run_header_with_policy(1, "sellcs"),
            bench("q/spmv_csr", 40),
        ]);
        // A csr-policy diff must not be gated against the sellcs record.
        let b = baseline_over(&groups, Some(1), Some("csr"));
        assert_eq!(b.kernels["q/spmv_csr"].min_ns, 100);
        let b = baseline_over(&groups, Some(1), Some("sellcs"));
        assert_eq!(b.kernels["q/spmv_csr"].min_ns, 40);
        // Legacy groups (no run header → no recorded policy) participate
        // in every baseline.
        let legacy = group_runs(&[bench("q/spmv_csr", 10)]);
        let b = baseline_over(&legacy, None, Some("sellcs"));
        assert_eq!(b.kernels["q/spmv_csr"].min_ns, 10);
    }

    #[test]
    fn rap_workload_replays_galerkin_plans() {
        let events = record_workload("rap", 1);
        assert!(
            events
                .iter()
                .any(|e| matches!(e, Event::Bench { bench, .. } if bench == "rap/spgemm_numeric")),
            "rap must exercise the numeric-only SpGEMM replay"
        );
    }

    #[test]
    fn quickstart_workload_produces_kernel_benches() {
        let events = record_workload("quickstart", 1);
        assert!(!events.is_empty());
        let names: Vec<&str> = events
            .iter()
            .filter_map(|e| match e {
                Event::Bench { bench, .. } => Some(bench.as_str()),
                _ => None,
            })
            .collect();
        for expect in ["quickstart/spgemm", "quickstart/halo_pack"] {
            assert!(names.contains(&expect), "{expect} missing from {names:?}");
        }
        // Which SpMV kernel fires depends on the active backend policy
        // (EXAWIND_KERNELS leaks into test processes by design — the CI
        // sellcs leg runs this very suite under the forced policy).
        assert!(
            names.contains(&"quickstart/spmv_csr") || names.contains(&"quickstart/spmv_sellcs"),
            "no SpMV bench in {names:?}"
        );
        // Round-trips through the schema (trajectory lines stay valid).
        let text: String = events.iter().map(|e| e.to_line() + "\n").collect();
        let back = telemetry::read_jsonl_str(&text).unwrap();
        assert_eq!(back.len(), events.len());
    }
}
