//! Distributed matrix operations: transpose, SpGEMM, and the Galerkin
//! triple product (hypre's distributed sparse M-M machinery of [28]).

use parcomm::{Message, Rank};
use sparse_kit::spgemm::{spgemm_flops, spgemm_hash, SpgemmPlan};
use sparse_kit::{Coo, Csr};
use telemetry::perfmodel::{self, KernelModel};

use crate::dist::RowDist;
use crate::ij::{CooBuffers, IjMatrix};
use crate::parcsr::ParCsr;

/// Aᵀ distributed: every local entry is routed to the owner of its global
/// column via the Algorithm-1 assembly. Collective.
pub fn par_transpose(rank: &Rank, a: &ParCsr) -> ParCsr {
    let mut ij = IjMatrix::new(rank, a.col_dist().clone(), a.row_dist().clone());
    let row_start = a.row_dist().start(a.rank_id());
    for li in 0..a.local_rows() {
        let gi = row_start + li as u64;
        let (cols, vals) = a.diag.row(li);
        for (&c, &v) in cols.iter().zip(vals) {
            ij.add_value(a.global_diag_col(c), gi, v);
        }
        let (cols, vals) = a.offd.row(li);
        for (&c, &v) in cols.iter().zip(vals) {
            ij.add_value(a.global_offd_col(c), gi, v);
        }
    }
    rank.kernel(perfmodel::transpose(a.diag.ncols(), a.diag.nnz()));
    ij.assemble(rank)
}

/// The trace-side price of one local SpGEMM (fresh or replayed): the
/// `c_nnz` output entries written once, `2·(expansion + c_nnz)` flops.
/// It differs from the `spgemm`/`spgemm_numeric` models the
/// `kernel_perf` events use; the modeled figures are built on this one.
fn spgemm_trace_model(expansion: u64, c_nnz: usize) -> KernelModel {
    KernelModel {
        bytes: c_nnz as u64 * (perfmodel::IDX + perfmodel::VAL),
        flops: 2 * (expansion + c_nnz as u64),
        dofs: c_nnz as u64,
    }
}

/// Row `li` of `b` as `(global column, value)` pairs in ascending
/// column order: the offd entries left of this rank's column block, the
/// diag block, then the remaining offd entries (`col_map_offd` is
/// sorted and never inside the block).
fn global_row(b: &ParCsr, li: usize) -> impl Iterator<Item = (u64, f64)> + '_ {
    let (dc, dv) = b.diag.row(li);
    let (oc, ov) = b.offd.row(li);
    let start = b.global_diag_col(0);
    let split = oc.partition_point(|&c| b.global_offd_col(c) < start);
    let offd = move |r: std::ops::Range<usize>| {
        oc[r.clone()].iter().zip(&ov[r]).map(|(&c, &v)| (b.global_offd_col(c), v))
    };
    offd(0..split)
        .chain(dc.iter().zip(dv).map(move |(&c, &v)| (start + c as u64, v)))
        .chain(offd(split..oc.len()))
}

/// Ask the owners of `needed` (sorted global rows of `b`, none owned
/// here) for those rows: the requests go out grouped by owner, each
/// owner answers with `serve(rows)`, and the answers come back in
/// `needed` order. Two sparse exchanges. Collective.
fn request_rows<T: Message>(
    rank: &Rank,
    b: &ParCsr,
    needed: &[u64],
    serve: impl Fn(&[u64]) -> T,
) -> Vec<T> {
    let me = rank.rank();
    let dist = b.row_dist();
    let mut requests: Vec<(usize, Vec<u64>)> = Vec::new();
    for &gid in needed {
        let owner = dist.owner(gid);
        assert_ne!(owner, me, "external row owned locally");
        match requests.last_mut() {
            Some((o, rows)) if *o == owner => rows.push(gid),
            _ => requests.push((owner, vec![gid])),
        }
    }
    let owners: Vec<usize> = requests.iter().map(|&(o, _)| o).collect();
    let responses: Vec<(usize, T)> = rank
        .sparse_exchange(requests)
        .into_iter()
        .map(|(src, gids)| (src, serve(&gids)))
        .collect();
    // Owners ascend with the row ids, and a sparse exchange delivers by
    // ascending source, so the answers line up with the requests.
    let answers = rank.sparse_exchange(responses);
    assert_eq!(answers.len(), owners.len(), "missing external-row response");
    answers
        .into_iter()
        .zip(owners)
        .map(|((src, t), owner)| {
            assert_eq!(src, owner, "external-row response out of order");
            t
        })
        .collect()
}

/// Fetch the rows of `b` whose global ids appear in `needed` (sorted,
/// all owned by other ranks), stacked in `needed` order: row `r` of the
/// result is `b`'s row `needed[r]`, with global column ids as column
/// indices. Two sparse exchanges. Collective.
pub fn fetch_external_rows(rank: &Rank, b: &ParCsr, needed: &[u64]) -> Csr {
    let dist = b.row_dist();
    let me = rank.rank();
    let answers = request_rows(rank, b, needed, |gids| -> CooBuffers {
        let mut counts = Vec::with_capacity(gids.len());
        let (mut cols, mut vals) = (Vec::new(), Vec::new());
        for &gid in gids {
            let before = cols.len();
            for (c, v) in global_row(b, dist.to_local(me, gid)) {
                cols.push(c);
                vals.push(v);
            }
            counts.push((cols.len() - before) as u64);
        }
        (counts, cols, vals)
    });
    let mut indptr = vec![0usize];
    let (mut indices, mut vals) = (Vec::new(), Vec::new());
    for (counts, cols, v) in answers {
        for n in counts {
            indptr.push(indptr.last().unwrap() + n as usize);
        }
        indices.extend(cols.into_iter().map(|c| c as usize));
        vals.extend(v);
    }
    Csr::from_parts(
        needed.len(),
        b.col_dist().global_n() as usize,
        indptr,
        indices,
        vals,
    )
}

/// Fetch only the **values** of external rows of `b`, stacked exactly as
/// [`fetch_external_rows`] returns them. Used by numeric-only SpGEMM
/// replay, where the column structure is already in the plan.
/// Collective.
pub fn fetch_external_vals(rank: &Rank, b: &ParCsr, needed: &[u64]) -> Vec<f64> {
    let dist = b.row_dist();
    let me = rank.rank();
    let answers = request_rows(rank, b, needed, |gids| -> (Vec<u64>, Vec<f64>) {
        let mut counts = Vec::with_capacity(gids.len());
        let mut vals = Vec::new();
        for &gid in gids {
            let before = vals.len();
            vals.extend(global_row(b, dist.to_local(me, gid)).map(|(_, v)| v));
            counts.push((vals.len() - before) as u64);
        }
        (counts, vals)
    });
    let mut out = Vec::new();
    for (counts, vals) in answers {
        assert_eq!(counts.iter().sum::<u64>(), vals.len() as u64, "ragged external values");
        out.extend(vals);
    }
    out
}

/// This rank's rows of `a` as a serial operand whose column `k` is row
/// `k` of [`local_b`]: diag column `k` stays `k`, offd column `k`
/// becomes `b`'s local row count plus `k`. Each row keeps `a`'s
/// diag-then-offd entry order, which is ascending in this numbering and
/// is the order every output entry is summed in.
fn local_a(a: &ParCsr) -> Csr {
    let nb = a.diag.ncols();
    let mut indptr = Vec::with_capacity(a.local_rows() + 1);
    indptr.push(0);
    let mut indices = Vec::with_capacity(a.local_nnz());
    let mut vals = Vec::with_capacity(a.local_nnz());
    for li in 0..a.local_rows() {
        let (dc, dv) = a.diag.row(li);
        let (oc, ov) = a.offd.row(li);
        indices.extend_from_slice(dc);
        indices.extend(oc.iter().map(|&k| nb + k));
        vals.extend_from_slice(dv);
        vals.extend_from_slice(ov);
        indptr.push(indices.len());
    }
    Csr::from_parts(a.local_rows(), nb + a.col_map_offd.len(), indptr, indices, vals)
}

/// B's serial operand: `b`'s local rows, then the fetched external rows,
/// all over global column ids. Each B row adds at most one product to
/// any output entry, so its column order leaves every sum unchanged.
fn local_b(b: &ParCsr, ext: &Csr) -> Csr {
    let mut indptr = Vec::with_capacity(b.local_rows() + ext.nrows() + 1);
    indptr.push(0);
    let mut indices = Vec::with_capacity(b.local_nnz() + ext.nnz());
    let mut vals = Vec::with_capacity(b.local_nnz() + ext.nnz());
    for li in 0..b.local_rows() {
        for (c, v) in global_row(b, li) {
            indices.push(c as usize);
            vals.push(v);
        }
        indptr.push(indices.len());
    }
    for r in 0..ext.nrows() {
        let (cols, v) = ext.row(r);
        indices.extend_from_slice(cols);
        vals.extend_from_slice(v);
        indptr.push(indices.len());
    }
    Csr::from_parts(indptr.len() - 1, ext.ncols(), indptr, indices, vals)
}

/// The fresh product behind [`par_spgemm`] and [`par_spgemm_planned`]:
/// fetch B's external rows once, multiply the local operands with
/// `multiply` (which also hands back whatever it records), and assemble
/// C. Collective.
fn fresh_product<T>(
    rank: &Rank,
    a: &ParCsr,
    b: &ParCsr,
    multiply: impl FnOnce(&Csr, &Csr) -> (T, Csr),
) -> (T, ParCsr) {
    assert_eq!(
        a.col_dist(),
        b.row_dist(),
        "A columns must be distributed like B rows"
    );
    let ext = fetch_external_rows(rank, b, &a.col_map_offd);
    // Expansion (products computed) is known from the inputs; nnz(C) only
    // after the multiply, so the model is finalized post-loop.
    // `spgemm_flops` counts 2 flops per product — halve it back to the
    // product count the models take.
    let expansion = spgemm_flops(&a.diag, &b.diag) / 2;
    let mut kguard = telemetry::kernel(
        "spgemm",
        perfmodel::spgemm(a.local_rows(), a.local_nnz(), expansion, 0),
    );
    let (recorded, c_loc) = multiply(&local_a(a), &local_b(b, &ext));
    let row_start = a.row_dist().start(rank.rank());
    let mut coo = Coo::with_capacity(c_loc.nnz());
    for li in 0..c_loc.nrows() {
        let (cols, vals) = c_loc.row(li);
        for (&j, &v) in cols.iter().zip(vals) {
            coo.push(row_start + li as u64, j as u64, v);
        }
    }
    kguard.set_model(perfmodel::spgemm(
        a.local_rows(),
        a.local_nnz(),
        expansion,
        coo.len(),
    ));
    drop(kguard);
    rank.kernel(spgemm_trace_model(expansion, coo.len()));
    let c = ParCsr::from_global_coo(rank, a.row_dist().clone(), b.col_dist().clone(), &coo);
    (recorded, c)
}

/// C = A·B distributed, with `a.col_dist() == b.row_dist()`. Gathers the
/// external rows of B referenced by A's offd block, multiplies this
/// rank's rows with [`spgemm_hash`], and reassembles. Collective.
///
/// # Panics
///
/// Panics on distribution mismatch.
pub fn par_spgemm(rank: &Rank, a: &ParCsr, b: &ParCsr) -> ParCsr {
    fresh_product(rank, a, b, |a_loc, b_loc| ((), spgemm_hash(a_loc, b_loc))).1
}

/// Galerkin coarse operator A_c = Pᵀ·A·P, distributed. Collective.
pub fn par_rap(rank: &Rank, a: &ParCsr, p: &ParCsr) -> ParCsr {
    let ap = par_spgemm(rank, a, p);
    let pt = par_transpose(rank, p);
    par_spgemm(rank, &pt, &ap)
}

/// Structural fingerprint of a [`ParCsr`]: everything that determines a
/// SpGEMM output's sparsity and the expansion order, without the values.
#[derive(Clone, Debug, PartialEq)]
pub struct MatPattern {
    diag_indptr: Vec<usize>,
    diag_indices: Vec<usize>,
    offd_indptr: Vec<usize>,
    offd_indices: Vec<usize>,
    col_map_offd: Vec<u64>,
}

impl MatPattern {
    /// Capture the pattern of `a`.
    pub fn of(a: &ParCsr) -> Self {
        MatPattern {
            diag_indptr: a.diag.indptr().to_vec(),
            diag_indices: a.diag.indices().to_vec(),
            offd_indptr: a.offd.indptr().to_vec(),
            offd_indices: a.offd.indices().to_vec(),
            col_map_offd: a.col_map_offd.clone(),
        }
    }

    /// Does `a` still have exactly this structure?
    pub fn matches(&self, a: &ParCsr) -> bool {
        self.diag_indptr == a.diag.indptr()
            && self.diag_indices == a.diag.indices()
            && self.offd_indptr == a.offd.indptr()
            && self.offd_indices == a.offd.indices()
            && self.col_map_offd == a.col_map_offd
    }
}

/// A recorded [`par_spgemm`]: the [`SpgemmPlan`] of this rank's local
/// operands plus C's distributed structure, so later products with
/// unchanged structure (every Picard re-solve) replay the numeric pass
/// alone — no hash probing, no per-row sort, no COO assembly, no
/// structural reassembly, and only values on the wire for external rows.
/// Replay is bitwise identical to the fresh product by
/// [`SpgemmPlan`]'s contract.
#[derive(Clone, Debug)]
pub struct ParSpgemmPlan {
    a_pat: MatPattern,
    b_pat: MatPattern,
    local: SpgemmPlan,
    /// Structure of C; values are rewritten by every [`Self::execute`].
    template: ParCsr,
}

impl ParSpgemmPlan {
    /// Do `a` and `b` still match the recorded patterns **on every
    /// rank**? Collective — all ranks must agree before branching
    /// between replay and a fresh multiply, or the sparse exchanges
    /// deadlock.
    pub fn matches(&self, rank: &Rank, a: &ParCsr, b: &ParCsr) -> bool {
        let ok = self.a_pat.matches(a) && self.b_pat.matches(b);
        rank.allreduce_sum(ok as u64) == rank.size() as u64
    }

    /// Expansion products per replay.
    pub fn expansion(&self) -> u64 {
        self.local.expansion() as u64
    }

    /// Numeric-only replay: C = A·B with A, B holding new values in the
    /// recorded structure. Collective.
    pub fn execute(&self, rank: &Rank, a: &ParCsr, b: &ParCsr) -> ParCsr {
        let ext_vals = fetch_external_vals(rank, b, &a.col_map_offd);
        let c_nnz = self.template.local_nnz();
        let _k = telemetry::kernel(
            "spgemm_numeric",
            perfmodel::spgemm_numeric(a.local_rows(), a.local_nnz(), self.expansion(), c_nnz),
        );
        let b_vals = (0..b.local_rows())
            .flat_map(|li| global_row(b, li).map(|(_, v)| v))
            .chain(ext_vals)
            .collect();
        let c_loc = self.local.execute(&local_a(a), &self.local.b_with_values(b_vals));
        // C's rows are column-sorted, as are the template's diag and offd
        // rows, so dealing entries out by owner fills both blocks in order.
        let mut c = self.template.clone();
        let own = c.col_dist().start(rank.rank())..c.col_dist().end(rank.rank());
        let (diag, offd) = (c.diag.vals_mut(), c.offd.vals_mut());
        let (mut d, mut o) = (0, 0);
        for (&j, &v) in c_loc.indices().iter().zip(c_loc.vals()) {
            if own.contains(&(j as u64)) {
                diag[d] = v;
                d += 1;
            } else {
                offd[o] = v;
                o += 1;
            }
        }
        c.refresh_diag_sell();
        rank.kernel(spgemm_trace_model(self.expansion(), c_nnz));
        c
    }
}

/// [`par_spgemm`] that also records a [`ParSpgemmPlan`] for numeric-only
/// replays, from the same single fetch of B's external rows. Collective.
pub fn par_spgemm_planned(rank: &Rank, a: &ParCsr, b: &ParCsr) -> (ParSpgemmPlan, ParCsr) {
    let (local, c) = fresh_product(rank, a, b, SpgemmPlan::new);
    let plan = ParSpgemmPlan {
        a_pat: MatPattern::of(a),
        b_pat: MatPattern::of(b),
        local,
        template: c.clone(),
    };
    (plan, c)
}

/// Per-rank nonzero counts of a distributed matrix (for the Fig. 5/10
/// balance plots). Collective; every rank receives the full vector.
pub fn nnz_per_rank(rank: &Rank, a: &ParCsr) -> Vec<u64> {
    rank.allgather(a.local_nnz() as u64)
}

/// Build a distribution that assigns contiguous blocks matching an
/// arbitrary partition vector: vertices are renumbered so each part's
/// vertices are contiguous. Returns (dist, old→new permutation).
pub fn dist_from_partition(part: &[usize], nparts: usize) -> (RowDist, Vec<u64>) {
    let mut counts = vec![0u64; nparts];
    for &p in part {
        counts[p] += 1;
    }
    let mut starts = vec![0u64; nparts + 1];
    for p in 0..nparts {
        starts[p + 1] = starts[p] + counts[p];
    }
    let dist = RowDist::from_starts(starts.clone());
    let mut next = starts;
    let mut perm = vec![0u64; part.len()];
    for (v, &p) in part.iter().enumerate() {
        perm[v] = next[p];
        next[p] += 1;
    }
    (dist, perm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector::ParVector;
    use parcomm::Comm;
    use sparse_kit::rap::galerkin;

    fn laplacian(n: usize) -> Csr {
        let mut coo = Coo::new();
        for i in 0..n as u64 {
            coo.push(i, i, 2.0);
            if i > 0 {
                coo.push(i, i - 1, -1.0);
            }
            if i + 1 < n as u64 {
                coo.push(i, i + 1, -1.0);
            }
        }
        Csr::from_coo(n, n, &coo)
    }

    /// Piecewise-constant interpolation n -> n/2.
    fn half_interp(n: usize) -> Csr {
        let nc = n / 2;
        let mut coo = Coo::new();
        for i in 0..n as u64 {
            coo.push(i, (i / 2).min(nc as u64 - 1), 1.0);
        }
        Csr::from_coo(n, nc, &coo)
    }

    #[test]
    fn transpose_matches_serial() {
        let n = 10;
        let p_serial = half_interp(n);
        for nranks in [1, 2, 3] {
            let p_ref = p_serial.clone();
            let out = Comm::run(nranks, move |rank| {
                let rd = RowDist::block(n as u64, rank.size());
                let cd = RowDist::block((n / 2) as u64, rank.size());
                let p = ParCsr::from_serial(rank, rd, cd, &p_ref);
                par_transpose(rank, &p).to_serial(rank)
            });
            for t in out {
                assert_eq!(t.to_dense(), p_serial.transpose().to_dense());
            }
        }
    }

    /// A signed-zero hazard: a stored 0.0 in A's first row meets B's
    /// negative entry, so one output entry sums only the product -0.0.
    fn hazard_pair(n: usize) -> (Csr, Csr) {
        let mut coo = Coo::new();
        for i in 0..n as u64 {
            coo.push(i, i, 2.0);
            if i > 0 {
                coo.push(i, i - 1, -1.0);
            }
            if i + 1 < n as u64 {
                coo.push(i, i + 1, -1.0);
            }
        }
        coo.push(0, n as u64 - 1, 0.0);
        (Csr::from_coo(n, n, &coo), laplacian(n))
    }

    /// The product pairs the SpGEMM tests run: C = A·P and the hazard.
    fn product_cases(n: usize) -> Vec<(Csr, Csr)> {
        vec![(laplacian(n), half_interp(n)), hazard_pair(n)]
    }

    #[test]
    fn spgemm_matches_serial() {
        let n = 12;
        for (a_serial, b_serial) in product_cases(n) {
            let expected = sparse_kit::spgemm::spgemm_hash(&a_serial, &b_serial);
            let (plan, planned) = SpgemmPlan::new(&a_serial, &b_serial);
            let replayed = plan.execute(&a_serial, &b_serial);
            for nranks in [1, 2, 4] {
                let (a_ref, b_ref) = (a_serial.clone(), b_serial.clone());
                let out = Comm::run(nranks, move |rank| {
                    let rd = RowDist::block(n as u64, rank.size());
                    let cd = RowDist::block(b_ref.ncols() as u64, rank.size());
                    let a = ParCsr::from_serial(rank, rd.clone(), rd.clone(), &a_ref);
                    let b = ParCsr::from_serial(rank, rd, cd, &b_ref);
                    par_spgemm(rank, &a, &b).to_serial(rank)
                });
                for c in out {
                    if nranks == 1 {
                        // One rank multiplies in the serial order: same bits.
                        assert_eq!(c, expected);
                        assert_eq!(bits(c.vals()), bits(planned.vals()));
                        assert_eq!(bits(c.vals()), bits(replayed.vals()));
                    }
                    let (cd, ed) = (c.to_dense(), expected.to_dense());
                    for (rc, re) in cd.iter().zip(&ed) {
                        for (x, y) in rc.iter().zip(re) {
                            assert!((x - y).abs() < 1e-12, "nranks={nranks}");
                        }
                    }
                }
            }
        }
        // The hazard really produces a -0.0 entry.
        let (a, b) = hazard_pair(n);
        let c = sparse_kit::spgemm::spgemm_hash(&a, &b);
        assert_eq!(c.get(0, n - 2).to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn rap_matches_serial_galerkin() {
        let n = 16;
        let a_serial = laplacian(n);
        let p_serial = half_interp(n);
        for nranks in [1, 2, 4] {
            let (a_ref, p_ref) = (a_serial.clone(), p_serial.clone());
            let out = Comm::run(nranks, move |rank| {
                let rd = RowDist::block(n as u64, rank.size());
                let cd = RowDist::block((n / 2) as u64, rank.size());
                let a = ParCsr::from_serial(rank, rd.clone(), rd.clone(), &a_ref);
                let p = ParCsr::from_serial(rank, rd, cd, &p_ref);
                par_rap(rank, &a, &p).to_serial(rank)
            });
            let expected = galerkin(&a_serial, &p_serial);
            for c in out {
                let (cd, ed) = (c.to_dense(), expected.to_dense());
                for (rc, re) in cd.iter().zip(&ed) {
                    for (x, y) in rc.iter().zip(re) {
                        assert!((x - y).abs() < 1e-12, "nranks={nranks}");
                    }
                }
            }
        }
    }

    #[test]
    fn rap_spmv_consistency() {
        // (PᵀAP)·x == Pᵀ(A(P·x)) distributed.
        Comm::run(3, |rank| {
            let n = 18u64;
            let a_serial = laplacian(n as usize);
            let p_serial = half_interp(n as usize);
            let rd = RowDist::block(n, 3);
            let cd = RowDist::block(n / 2, 3);
            let a = ParCsr::from_serial(rank, rd.clone(), rd.clone(), &a_serial);
            let p = ParCsr::from_serial(rank, rd.clone(), cd.clone(), &p_serial);
            let ac = par_rap(rank, &a, &p);
            let pt = par_transpose(rank, &p);

            let xc = ParVector::from_fn(rank, cd, |g| (g as f64 * 0.7).cos());
            let lhs = ac.spmv(rank, &xc).to_serial(rank);
            let px = p.spmv(rank, &xc);
            let apx = a.spmv(rank, &px);
            let rhs = pt.spmv(rank, &apx).to_serial(rank);
            for (x, y) in lhs.iter().zip(&rhs) {
                assert!((x - y).abs() < 1e-10);
            }
        });
    }

    /// Bit pattern of a float vector (bitwise comparisons below).
    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn spgemm_plan_replay_is_bitwise_identical_to_fresh() {
        let n = 16;
        for (a_serial, b_serial) in product_cases(n) {
            for nranks in [1, 2, 3] {
                let (a_ref, b_ref) = (a_serial.clone(), b_serial.clone());
                let out = Comm::run(nranks, move |rank| {
                    let rd = RowDist::block(n as u64, rank.size());
                    let cd = RowDist::block(b_ref.ncols() as u64, rank.size());
                    let a = ParCsr::from_serial(rank, rd.clone(), rd.clone(), &a_ref);
                    let p = ParCsr::from_serial(rank, rd.clone(), cd.clone(), &b_ref);
                    // A planned fresh product fetches B's external rows
                    // once, exactly like an unplanned one.
                    let t0 = rank.trace_snapshot().total();
                    let fresh = par_spgemm(rank, &a, &p);
                    let t1 = rank.trace_snapshot().total();
                    let (plan, c0) = par_spgemm_planned(rank, &a, &p);
                    let t2 = rank.trace_snapshot().total();
                    assert_eq!(t1.collectives - t0.collectives, t2.collectives - t1.collectives);
                    assert_eq!(t1.msgs - t0.msgs, t2.msgs - t1.msgs);
                    assert_eq!(bits(fresh.diag.vals()), bits(c0.diag.vals()));
                    assert_eq!(bits(fresh.offd.vals()), bits(c0.offd.vals()));
                    assert!(plan.matches(rank, &a, &p));
                    // Same values: replay must equal the fresh product bit
                    // for bit.
                    let c1 = plan.execute(rank, &a, &p);
                    assert_eq!(bits(c0.diag.vals()), bits(c1.diag.vals()));
                    assert_eq!(bits(c0.offd.vals()), bits(c1.offd.vals()));
                    // Value-only drift (structure untouched): replay must
                    // match a from-scratch multiply bitwise.
                    let mut a2 = a.clone();
                    a2.scale(1.0 / 3.0);
                    let c2 = plan.execute(rank, &a2, &p);
                    let c2_fresh = par_spgemm(rank, &a2, &p);
                    assert_eq!(bits(c2.diag.vals()), bits(c2_fresh.diag.vals()));
                    assert_eq!(bits(c2.offd.vals()), bits(c2_fresh.offd.vals()));
                    (c0.to_serial(rank), c1.to_serial(rank), c2.to_serial(rank))
                });
                let mut a2_serial = a_serial.clone();
                a2_serial.scale(1.0 / 3.0);
                let (plan, planned) = SpgemmPlan::new(&a_serial, &b_serial);
                let replayed = plan.execute(&a_serial, &b_serial);
                let replayed2 = plan.execute(&a2_serial, &b_serial);
                for (c0, c1, c2) in out {
                    assert_eq!(c2.nnz(), planned.nnz());
                    if nranks == 1 {
                        // One rank: the serial kernel's bits, fresh and replayed.
                        assert_eq!(c0, sparse_kit::spgemm::spgemm_hash(&a_serial, &b_serial));
                        assert_eq!(bits(c0.vals()), bits(planned.vals()));
                        assert_eq!(bits(c1.vals()), bits(replayed.vals()));
                        assert_eq!(bits(c2.vals()), bits(replayed2.vals()));
                    }
                }
            }
        }
    }

    #[test]
    fn spgemm_plan_detects_structure_change_collectively() {
        Comm::run(2, |rank| {
            let n = 12;
            let rd = RowDist::block(n as u64, 2);
            let cd = RowDist::block((n / 2) as u64, 2);
            let a = ParCsr::from_serial(rank, rd.clone(), rd.clone(), &laplacian(n));
            let p = ParCsr::from_serial(rank, rd.clone(), cd.clone(), &half_interp(n));
            let (plan, _) = par_spgemm_planned(rank, &a, &p);
            // A different-structure A (dense band of width 2) must be
            // rejected on every rank.
            let mut coo = Coo::new();
            for i in 0..n as u64 {
                coo.push(i, i, 1.0);
                if i + 2 < n as u64 {
                    coo.push(i, i + 2, 0.5);
                }
            }
            let wide = Csr::from_coo(n, n, &coo);
            let a2 = ParCsr::from_serial(rank, rd.clone(), rd, &wide);
            assert!(!plan.matches(rank, &a2, &p));
        });
    }

    #[test]
    fn fetch_external_rows_returns_exact_rows() {
        Comm::run(2, |rank| {
            let n = 6;
            let a_serial = laplacian(n);
            let rd = RowDist::block(n as u64, 2);
            let a = ParCsr::from_serial(rank, rd.clone(), rd.clone(), &a_serial);
            // Rank 0 asks for row 3 (owned by rank 1) and vice versa.
            let want = if rank.rank() == 0 { vec![3u64] } else { vec![0u64] };
            let ext = fetch_external_rows(rank, &a, &want);
            assert_eq!(ext.nrows(), 1);
            // Rows arrive in ascending global column order.
            let (cols, vals) = ext.row(0);
            let pairs: Vec<(usize, f64)> = cols.iter().copied().zip(vals.iter().copied()).collect();
            if rank.rank() == 0 {
                assert_eq!(pairs, vec![(2, -1.0), (3, 2.0), (4, -1.0)]);
            } else {
                assert_eq!(pairs, vec![(0, 2.0), (1, -1.0)]);
            }
            assert_eq!(fetch_external_vals(rank, &a, &want), vals.to_vec());
        });
    }

    #[test]
    fn nnz_per_rank_gathers() {
        let out = Comm::run(3, |rank| {
            let n = 9;
            let a_serial = laplacian(n);
            let rd = RowDist::block(n as u64, 3);
            let a = ParCsr::from_serial(rank, rd.clone(), rd.clone(), &a_serial);
            nnz_per_rank(rank, &a)
        });
        for v in &out {
            assert_eq!(v.iter().sum::<u64>(), 25); // 9*3 - 2
        }
        assert_eq!(out[0], out[2]);
    }

    #[test]
    fn dist_from_partition_renumbers_contiguously() {
        let part = vec![1, 0, 1, 0, 2];
        let (dist, perm) = dist_from_partition(&part, 3);
        assert_eq!(dist.local_n(0), 2);
        assert_eq!(dist.local_n(1), 2);
        assert_eq!(dist.local_n(2), 1);
        // Old vertices 1, 3 (part 0) become global 0, 1.
        assert_eq!(perm[1], 0);
        assert_eq!(perm[3], 1);
        assert_eq!(perm[0], 2);
        assert_eq!(perm[2], 3);
        assert_eq!(perm[4], 4);
        // Permutation is a bijection.
        let mut sorted = perm.clone();
        sorted.sort();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4]);
    }
}
