//! Cross-solve reuse of AMG setup work.
//!
//! The pressure-Poisson operator is assembled from `dt/ρ · area/dist`
//! and Dirichlet rows alone, so its **values** stay constant from one
//! Picard iteration and one time step to the next unless the geometry
//! (mesh motion), `dt` or the overset tags change. Two layers exploit
//! that:
//!
//! - [`AmgCache`] keeps the last hierarchy and hands it back while the
//!   newly assembled operator is bitwise equal to the one it was built
//!   from — the common case, which skips setup entirely.
//! - [`AmgReuse`] pays off on a cache miss whose sparsity is unchanged:
//!   it keeps one [`ParSpgemmPlan`] per Galerkin product in setup's
//!   (collectively deterministic) call order; a matching structure
//!   replays the numeric pass alone, a mismatch falls back to a fresh
//!   multiply and re-records the plan at that position.
//!
//! Correctness relies on two invariants:
//!
//! - **Collective agreement**: the cache allreduces its per-rank verdict
//!   and `ParSpgemmPlan::matches` does the same for each plan, so every
//!   rank takes the reuse-or-fresh branch together (the exchanges inside
//!   a fresh setup would otherwise deadlock). The plan cursor advances
//!   identically on all ranks because hierarchy setup makes the same
//!   product calls everywhere.
//! - **Bitwise fidelity**: a cached hierarchy is reused only for the
//!   exact operator bits and configuration it was built from, which is
//!   the hierarchy a fresh setup would build; plan replay reproduces the
//!   fresh hash accumulation order exactly (see `distmat::ops`). Runs
//!   with reuse are therefore bit-identical to runs without —
//!   `tests/determinism.rs` holds this across thread counts and
//!   transports.

use distmat::ops::{par_spgemm_planned, ParSpgemmPlan};
use distmat::ParCsr;
use parcomm::Rank;
use resilience::SolveError;
use sparse_kit::Csr;

use crate::config::AmgConfig;
use crate::cycle::AmgPrecond;

/// A cursor-driven store of SpGEMM plans for one recurring AMG setup
/// (one equation/mesh pair). See the module docs.
#[derive(Clone, Debug, Default)]
pub struct AmgReuse {
    plans: Vec<ParSpgemmPlan>,
    cursor: usize,
}

impl AmgReuse {
    /// Fresh, empty store: the first setup through it plans everything.
    pub fn new() -> AmgReuse {
        AmgReuse::default()
    }

    /// Rewind to the first plan; call at the start of each setup.
    pub fn begin(&mut self) {
        self.cursor = 0;
    }

    /// C = A·B, replaying the recorded plan at the cursor when the
    /// structures still match (collective decision), else multiplying
    /// fresh and re-recording. Collective.
    pub fn spgemm(&mut self, rank: &Rank, a: &ParCsr, b: &ParCsr) -> ParCsr {
        if let Some(plan) = self.plans.get(self.cursor) {
            if plan.matches(rank, a, b) {
                let c = plan.execute(rank, a, b);
                self.cursor += 1;
                return c;
            }
        }
        let (plan, c) = par_spgemm_planned(rank, a, b);
        if self.cursor < self.plans.len() {
            self.plans[self.cursor] = plan;
        } else {
            self.plans.push(plan);
        }
        self.cursor += 1;
        c
    }

    /// Drop plans past the cursor (a shallower hierarchy than last
    /// time); call at the end of a successful setup.
    pub fn finish(&mut self) {
        self.plans.truncate(self.cursor);
    }

    /// Recorded plans (observability/tests).
    pub fn n_plans(&self) -> usize {
        self.plans.len()
    }

    /// Plans consumed (hit or re-recorded) since [`Self::begin`].
    pub fn cursor(&self) -> usize {
        self.cursor
    }
}

/// The last AMG preconditioner of one recurring setup (one
/// equation/mesh pair) plus the [`AmgReuse`] plan store its fresh
/// setups run through. See the module docs.
#[derive(Default)]
pub struct AmgCache {
    plans: AmgReuse,
    /// The cached preconditioner and the configuration it was built with.
    last: Option<(AmgPrecond, AmgConfig)>,
}

impl AmgCache {
    /// Empty cache: the first request sets up fresh.
    pub fn new() -> AmgCache {
        AmgCache::default()
    }

    /// A preconditioner for `a`: the cached one when `a` and `config`
    /// are bitwise those it was built from on **every** rank (one
    /// allreduce decides), else a fresh setup through the plan store,
    /// which replaces the cache entry. A hit adds 1 to the
    /// `amg.setup_reused` telemetry counter. Collective.
    ///
    /// # Errors
    ///
    /// Propagates [`AmgPrecond::setup_with_reuse`] failures; the cache
    /// is left empty.
    pub fn get_or_setup(
        &mut self,
        rank: &Rank,
        a: &ParCsr,
        config: &AmgConfig,
    ) -> Result<&AmgPrecond, SolveError> {
        // Whether an entry exists is collectively identical (every fill
        // and eviction is), so this branch needs no communication.
        if let Some((p, cfg)) = &self.last {
            let same = cfg == config && same_bits(&p.hierarchy().levels[0].a, a);
            if rank.allreduce_sum(u64::from(!same)) == 0 {
                telemetry::counter("amg.setup_reused", 1);
                return Ok(&self.last.as_ref().expect("checked above").0);
            }
        }
        let p = self.setup_uncached(rank, a.clone(), config)?;
        Ok(&self.last.insert((p, *config)).0)
    }

    /// Evict the cached preconditioner, then set up fresh through the
    /// plan store and hand the result back without caching it (the
    /// recovery ladder's rebuild). Collective.
    ///
    /// # Errors
    ///
    /// Propagates [`AmgPrecond::setup_with_reuse`] failures.
    pub fn setup_uncached(
        &mut self,
        rank: &Rank,
        a: ParCsr,
        config: &AmgConfig,
    ) -> Result<AmgPrecond, SolveError> {
        self.evict();
        AmgPrecond::setup_with_reuse(rank, a, config, &mut self.plans)
    }

    /// The cached preconditioner, if any.
    pub fn current(&self) -> Option<&AmgPrecond> {
        self.last.as_ref().map(|(p, _)| p)
    }

    /// Drop the cached preconditioner; the plan store is kept.
    pub fn evict(&mut self) {
        self.last = None;
    }

    /// Recorded SpGEMM plans (observability/checkpoint metadata).
    pub fn n_plans(&self) -> usize {
        self.plans.n_plans()
    }
}

/// Same row/column distribution, off-rank column map, sparsity and
/// value bits on this rank.
fn same_bits(x: &ParCsr, y: &ParCsr) -> bool {
    x.row_dist() == y.row_dist()
        && x.col_dist() == y.col_dist()
        && x.col_map_offd == y.col_map_offd
        && same_csr_bits(&x.diag, &y.diag)
        && same_csr_bits(&x.offd, &y.offd)
}

fn same_csr_bits(x: &Csr, y: &Csr) -> bool {
    x.ncols() == y.ncols()
        && x.indptr() == y.indptr()
        && x.indices() == y.indices()
        && x.vals()
            .iter()
            .zip(y.vals())
            .all(|(u, v)| u.to_bits() == v.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;
    use distmat::RowDist;
    use parcomm::Comm;
    use sparse_kit::Coo;

    /// 2-D 5-point Laplacian on an `nx × nx` grid.
    fn laplacian_2d(nx: usize) -> Csr {
        let id = |i: usize, j: usize| (i * nx + j) as u64;
        let mut coo = Coo::new();
        for i in 0..nx {
            for j in 0..nx {
                coo.push(id(i, j), id(i, j), 4.0);
                if i > 0 {
                    coo.push(id(i, j), id(i - 1, j), -1.0);
                }
                if i + 1 < nx {
                    coo.push(id(i, j), id(i + 1, j), -1.0);
                }
                if j > 0 {
                    coo.push(id(i, j), id(i, j - 1), -1.0);
                }
                if j + 1 < nx {
                    coo.push(id(i, j), id(i, j + 1), -1.0);
                }
            }
        }
        Csr::from_coo(nx * nx, nx * nx, &coo)
    }

    fn collectives(rank: &Rank) -> u64 {
        rank.trace_snapshot().total().collectives
    }

    #[test]
    fn hit_costs_one_allreduce_and_one_ulp_forces_fresh_setup_everywhere() {
        let serial = laplacian_2d(16);
        let cfg = AmgConfig::pressure_default();
        let out = Comm::run(2, move |rank| {
            let dist = RowDist::block(256, rank.size());
            let a = ParCsr::from_serial(rank, dist.clone(), dist.clone(), &serial);
            let mut cache = AmgCache::new();

            let c0 = collectives(rank);
            let first = cache.get_or_setup(rank, &a, &cfg).unwrap() as *const AmgPrecond;
            let fresh_cost = collectives(rank) - c0;

            // Same bits (a separately assembled copy): a hit whose only
            // collective is the verdict allreduce.
            let same = ParCsr::from_serial(rank, dist.clone(), dist.clone(), &serial);
            let c1 = collectives(rank);
            let hit = cache.get_or_setup(rank, &same, &cfg).unwrap() as *const AmgPrecond;
            let hit_cost = collectives(rank) - c1;
            assert_eq!(
                hit, first,
                "a bitwise-equal operator must reuse the hierarchy"
            );

            // One ULP on one coefficient of rank 1 only: every rank must
            // set up fresh, and the result is what a fresh setup builds.
            let mut nudged = same.clone();
            if rank.rank() == 1 {
                let v = &mut nudged.diag.vals_mut()[0];
                *v = f64::from_bits(v.to_bits() + 1);
            }
            let c2 = collectives(rank);
            let miss = cache.get_or_setup(rank, &nudged, &cfg).unwrap();
            let miss_cost = collectives(rank) - c2;
            let cached_bits: Vec<u64> = miss.hierarchy().levels[0]
                .a
                .diag
                .vals()
                .iter()
                .map(|v| v.to_bits())
                .collect();
            let nudged_bits: Vec<u64> = nudged.diag.vals().iter().map(|v| v.to_bits()).collect();
            assert_eq!(
                cached_bits, nudged_bits,
                "the cache must now hold the new operator"
            );
            let fresh = AmgPrecond::setup(rank, nudged.clone(), &cfg).unwrap();
            let level_bits = |p: &AmgPrecond| -> Vec<u64> {
                p.hierarchy()
                    .levels
                    .iter()
                    .flat_map(|l| l.a.diag.vals())
                    .map(|v| v.to_bits())
                    .collect()
            };
            assert_eq!(level_bits(miss), level_bits(&fresh));

            // A different configuration is a miss too, even on equal bits.
            let other = AmgConfig::standard();
            let c3 = collectives(rank);
            cache.get_or_setup(rank, &nudged, &other).unwrap();
            let config_cost = collectives(rank) - c3;
            (fresh_cost, hit_cost, miss_cost, config_cost)
        });
        // Both ranks issue the same collectives, so a setup ran on both.
        assert_eq!(out[0], out[1]);
        let (fresh_cost, hit_cost, miss_cost, config_cost) = out[0];
        assert_eq!(
            hit_cost, 1,
            "a hit must issue exactly the verdict allreduce"
        );
        assert!(
            fresh_cost > 1,
            "a fresh setup is collective-heavy: {fresh_cost}"
        );
        assert!(miss_cost > 1, "a miss must set up fresh: {miss_cost}");
        assert!(
            config_cost > 1,
            "a config change must set up fresh: {config_cost}"
        );
    }

    #[test]
    fn setup_uncached_evicts_and_keeps_plans() {
        let serial = laplacian_2d(12);
        let cfg = AmgConfig::pressure_default();
        Comm::run(2, move |rank| {
            let dist = RowDist::block(144, rank.size());
            let a = ParCsr::from_serial(rank, dist.clone(), dist.clone(), &serial);
            let mut cache = AmgCache::new();
            cache.get_or_setup(rank, &a, &cfg).unwrap();
            let planned = cache.n_plans();
            assert!(planned >= 2, "a fresh setup records its Galerkin plans");
            cache.setup_uncached(rank, a.clone(), &cfg).unwrap();
            assert_eq!(cache.n_plans(), planned);
            // The entry is gone: the next request sets up fresh again.
            let c0 = collectives(rank);
            cache.get_or_setup(rank, &a, &cfg).unwrap();
            assert!(collectives(rank) - c0 > 1);
        });
    }
}
