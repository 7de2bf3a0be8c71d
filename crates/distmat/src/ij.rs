//! IJ-interface global assembly: the paper's Algorithm 1 (matrix) and
//! Algorithm 2 (vector).
//!
//! Ranks contribute COO entries by *global* ids; entries for rows owned by
//! other ranks are buffered separately (the paper's `A_send`/`RHS_send`),
//! exchanged, and folded into the owned data with
//! `stable_sort_by_key` + `reduce_by_key`. The receive counts are
//! pre-computed with an allreduce so that buffers can be allocated once up
//! front, exactly as §3.3 prescribes. The final step splits the matrix
//! into diag and offd blocks.
//!
//! Mirrors the hypre API sequence
//! `HYPRE_IJMatrixSetValues2` / `AddToValues2` / `Assemble`.

use parcomm::{Rank, Tag};
use resilience::faults::{self, FaultKind};
use resilience::SolveError;
use sparse_kit::prims;
use sparse_kit::Coo;
use telemetry::perfmodel;

use crate::dist::RowDist;
use crate::parcsr::ParCsr;
use crate::vector::ParVector;

/// Bytes of one COO triple on the wire (i, j, value).
const TRIPLE_BYTES: u64 = 24;

/// COO triple arrays `(rows, cols, vals)` as sent on the wire.
pub type CooBuffers = (Vec<u64>, Vec<u64>, Vec<f64>);

/// An in-assembly distributed matrix (the IJ interface).
#[derive(Clone, Debug)]
pub struct IjMatrix {
    row_dist: RowDist,
    col_dist: RowDist,
    rank_id: usize,
    owned: Coo,
    shared: Coo,
}

impl IjMatrix {
    /// New empty IJ matrix over the given distributions.
    pub fn new(rank: &Rank, row_dist: RowDist, col_dist: RowDist) -> Self {
        IjMatrix {
            row_dist,
            col_dist,
            rank_id: rank.rank(),
            owned: Coo::new(),
            shared: Coo::new(),
        }
    }

    /// Add a contribution to global entry `(gi, gj)`; duplicates sum.
    /// Entries whose row is owned elsewhere are buffered for the exchange
    /// (the paper's `AddToValues2` path).
    pub fn add_value(&mut self, gi: u64, gj: u64, v: f64) {
        assert!(gi < self.row_dist.global_n(), "row {gi} out of range");
        assert!(gj < self.col_dist.global_n(), "col {gj} out of range");
        if self.row_dist.owner(gi) == self.rank_id {
            self.owned.push(gi, gj, v);
        } else {
            self.shared.push(gi, gj, v);
        }
    }

    /// Algorithm 1: exchange off-rank entries, sort + reduce, split into
    /// diag/offd. Collective.
    ///
    /// # Panics
    ///
    /// Panics on a corrupted exchange; see [`IjMatrix::try_assemble`]
    /// for the fallible variant.
    pub fn assemble(self, rank: &Rank) -> ParCsr {
        self.try_assemble(rank).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`IjMatrix::assemble`] with decode failures (timeout, payload
    /// type, receive-count mismatch) surfaced as a typed [`SolveError`].
    /// Hosts the `assembly-nan` fault-injection hook: with a matching
    /// spec armed, one owned COO value is corrupted to NaN before the
    /// exchange — exactly the torn-triple corruption the hypre IJ
    /// interface can see on real hardware.
    pub fn try_assemble(mut self, rank: &Rank) -> Result<ParCsr, SolveError> {
        // Local pre-sort of both buffers (the Nalu-Wind local assembly
        // already guarantees this; duplicates from element contributions
        // combine here).
        let presorted = self.owned.len() + self.shared.len();
        rank.kernel(perfmodel::sort(presorted, TRIPLE_BYTES));
        {
            let _k = telemetry::kernel(
                "assembly_sort_reduce",
                perfmodel::assembly_sort_reduce(presorted, TRIPLE_BYTES),
            );
            self.owned.sort_and_combine();
            self.shared.sort_and_combine();
        }

        if faults::fire(FaultKind::AssemblyNan, || rank.phase_name()) {
            if let Some(v) = self.owned.vals.first_mut() {
                *v = f64::NAN;
            }
        }
        // socket-drop aborts the whole assembly exchange before any
        // message is in flight (see `FaultKind::SocketDrop`): a retry
        // after recovery re-runs a complete, clean exchange.
        if faults::fire(FaultKind::SocketDrop, || rank.phase_name()) {
            return Err(SolveError::Comm {
                detail: format!("injected socket drop in {}", rank.phase_name()),
            });
        }

        // Pre-compute nnz_recv (paper: MPI_Allreduce after the graph
        // computation) so receive buffers can be sized up front. One
        // collective exchanges the whole sender→receiver count matrix.
        let mut my_counts = vec![0u64; rank.size()];
        for &gi in &self.shared.rows {
            my_counts[self.row_dist.owner(gi)] += 1;
        }
        let count_matrix = rank.allgather(my_counts);
        let tag_mat: Tag = rank.alloc_tag();
        let nnz_recv: usize = count_matrix.iter().map(|row| row[self.rank_id] as usize).sum();

        // Exchange A_send: one message per destination rank.
        let mut by_dst: Vec<(usize, CooBuffers)> = Vec::new();
        {
            let mut k = 0;
            while k < self.shared.len() {
                let dst = self.row_dist.owner(self.shared.rows[k]);
                let begin = k;
                while k < self.shared.len()
                    && self.row_dist.owner(self.shared.rows[k]) == dst
                {
                    k += 1;
                }
                by_dst.push((
                    dst,
                    (
                        self.shared.rows[begin..k].to_vec(),
                        self.shared.cols[begin..k].to_vec(),
                        self.shared.vals[begin..k].to_vec(),
                    ),
                ));
            }
        }
        for (dst, payload) in by_dst {
            rank.send(dst, tag_mat, payload);
        }
        // Stack owned and received into one buffer sized with nnz_recv.
        let mut all = Coo::with_capacity(self.owned.len() + nnz_recv);
        all.extend(&self.owned);
        let mut received = 0usize;
        for (src, src_counts) in count_matrix.iter().enumerate() {
            if src == self.rank_id || src_counts[self.rank_id] == 0 {
                continue;
            }
            let (rows, cols, vals): CooBuffers = rank.try_recv(src, tag_mat)?;
            received += rows.len();
            for ((r0, c0), v0) in rows.into_iter().zip(cols).zip(vals) {
                all.push(r0, c0, v0);
            }
        }
        if received != nnz_recv {
            return Err(SolveError::Comm {
                detail: format!(
                    "assembly receive count mismatch: got {received}, expected {nnz_recv}"
                ),
            });
        }

        // stable_sort_by_key + reduce_by_key over the stacked buffer.
        let sort = perfmodel::sort(all.len(), TRIPLE_BYTES);
        let reduce = perfmodel::reduce(all.len(), TRIPLE_BYTES);
        rank.kernel(sort);
        rank.kernel(reduce);
        {
            let _k = telemetry::kernel("assembly_sort_reduce", sort.plus(reduce));
            all.sort_and_combine();
        }

        // Split into diag/offd and build the ParCSR (records nothing:
        // splitting is a single pass).
        rank.kernel(perfmodel::blas1(all.len(), 2, 0));
        Ok(ParCsr::from_global_coo(rank, self.row_dist, self.col_dist, &all))
    }

}

/// An in-assembly distributed vector (the IJ interface).
#[derive(Clone, Debug)]
pub struct IjVector {
    dist: RowDist,
    rank_id: usize,
    owned: Vec<f64>,
    shared_ids: Vec<u64>,
    shared_vals: Vec<f64>,
}

impl IjVector {
    /// New zero vector over `dist`.
    pub fn new(rank: &Rank, dist: RowDist) -> Self {
        let n = dist.local_n(rank.rank());
        IjVector {
            dist,
            rank_id: rank.rank(),
            owned: vec![0.0; n],
            shared_ids: Vec::new(),
            shared_vals: Vec::new(),
        }
    }

    /// Add to global entry `gi`; off-rank entries are buffered.
    pub fn add_value(&mut self, gi: u64, v: f64) {
        assert!(gi < self.dist.global_n(), "index {gi} out of range");
        if self.dist.owner(gi) == self.rank_id {
            self.owned[self.dist.to_local(self.rank_id, gi)] += v;
        } else {
            self.shared_ids.push(gi);
            self.shared_vals.push(v);
        }
    }

    /// Number of buffered off-rank entries (`n_send`).
    pub fn n_shared(&self) -> usize {
        self.shared_ids.len()
    }

    /// Algorithm 2: exchange off-rank entries, sort + reduce **only the
    /// received values** (n_recv ≪ n_own), then scatter-add into the owned
    /// array. Collective.
    pub fn assemble(mut self, rank: &Rank) -> ParVector {
        // Group shared entries by owner.
        let mut keys: Vec<u64> = self.shared_ids.clone();
        prims::stable_sort_by_key(&mut keys, &mut self.shared_vals);
        self.shared_ids = keys;

        // Vector entries `(ids, vals)` as sent on the wire.
        type VecBuffers = (Vec<u64>, Vec<f64>);
        let mut msgs: Vec<(usize, VecBuffers)> = Vec::new();
        let mut k = 0;
        while k < self.shared_ids.len() {
            let dst = self.dist.owner(self.shared_ids[k]);
            let begin = k;
            while k < self.shared_ids.len() && self.dist.owner(self.shared_ids[k]) == dst {
                k += 1;
            }
            msgs.push((
                dst,
                (
                    self.shared_ids[begin..k].to_vec(),
                    self.shared_vals[begin..k].to_vec(),
                ),
            ));
        }
        let received = rank.sparse_exchange(msgs);

        // Stack received values only.
        let mut recv_ids: Vec<u64> = Vec::new();
        let mut recv_vals: Vec<f64> = Vec::new();
        for (_, (ids, vals)) in received {
            recv_ids.extend(ids);
            recv_vals.extend(vals);
        }
        // Sort + reduce over the received values only (the paper found
        // this noticeably faster than sorting the whole stacked vector).
        rank.kernel(perfmodel::sort(recv_ids.len(), 16));
        let (ids, vals) = {
            let _k = telemetry::kernel(
                "assembly_sort_reduce",
                perfmodel::assembly_sort_reduce(recv_ids.len(), 16),
            );
            prims::stable_sort_by_key(&mut recv_ids, &mut recv_vals);
            prims::reduce_by_key(&recv_ids, &recv_vals)
        };

        // RHS[i_new] += RHS_new[i_new].
        rank.kernel(perfmodel::blas1(ids.len(), 2, 2));
        for (&gi, &v) in ids.iter().zip(&vals) {
            let li = self.dist.to_local(self.rank_id, gi);
            self.owned[li] += v;
        }
        ParVector::from_local(rank, self.dist, self.owned)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parcomm::Comm;
    use sparse_kit::Csr;

    #[test]
    fn matrix_assembly_matches_serial_reference() {
        // Every rank contributes to a global 8×8 tridiagonal matrix,
        // including entries in rows owned by neighbours.
        let n = 8u64;
        for p in [1, 2, 4] {
            let out = Comm::run(p, move |rank| {
                let dist = RowDist::block(n, rank.size());
                let mut ij = IjMatrix::new(rank, dist.clone(), dist);
                // Each rank assembles "element" contributions for the
                // edges (i, i+1) where i % size == rank — scattering work
                // across ranks irrespective of row ownership.
                for i in 0..n - 1 {
                    if i as usize % rank.size() == rank.rank() {
                        ij.add_value(i, i, 1.0);
                        ij.add_value(i + 1, i + 1, 1.0);
                        ij.add_value(i, i + 1, -1.0);
                        ij.add_value(i + 1, i, -1.0);
                    }
                }
                ij.assemble(rank).to_serial(rank)
            });
            // Serial reference: assemble the same edges on one "rank".
            let mut coo = sparse_kit::Coo::new();
            for i in 0..n - 1 {
                coo.push(i, i, 1.0);
                coo.push(i + 1, i + 1, 1.0);
                coo.push(i, i + 1, -1.0);
                coo.push(i + 1, i, -1.0);
            }
            let expected = Csr::from_coo(n as usize, n as usize, &coo);
            for gathered in out {
                assert_eq!(gathered.to_dense(), expected.to_dense(), "p={p}");
            }
        }
    }

    #[test]
    fn duplicate_cross_rank_contributions_sum() {
        let out = Comm::run(3, |rank| {
            let dist = RowDist::block(3, 3);
            let mut ij = IjMatrix::new(rank, dist.clone(), dist);
            // All ranks hit global (0,0).
            ij.add_value(0, 0, 1.0);
            ij.assemble(rank).to_serial(rank)
        });
        assert_eq!(out[0].get(0, 0), 3.0);
    }

    #[test]
    fn assembly_records_sort_kernels_and_messages() {
        let (_, traces) = Comm::run_traced(2, |rank| {
            let dist = RowDist::block(4, 2);
            let mut ij = IjMatrix::new(rank, dist.clone(), dist);
            rank.with_phase("global assembly", || {
                // Contribute to a row the other rank owns.
                let other_row = if rank.rank() == 0 { 2 } else { 0 };
                ij.add_value(other_row, 0, 1.0);
                ij.add_value(rank.rank() as u64 * 2, 0, 1.0);
                ij.assemble(rank)
            });
        });
        for t in &traces {
            let phase = t.phase("global assembly");
            assert!(phase.msgs >= 1, "expected off-rank COO message");
            // Each rank stacks one owned and one received triple.
            let stacked = perfmodel::sort(2, TRIPLE_BYTES).bytes
                + perfmodel::reduce(2, TRIPLE_BYTES).bytes;
            assert!(phase.kernel_bytes >= stacked, "expected sort + reduce kernels");
            assert!(phase.collectives >= 1, "expected nnz_recv allreduce");
        }
    }

    #[test]
    fn vector_assembly_matches_reference() {
        let n = 9u64;
        for p in [1, 3] {
            let out = Comm::run(p, move |rank| {
                let dist = RowDist::block(n, rank.size());
                let mut ij = IjVector::new(rank, dist);
                for i in 0..n {
                    // every rank adds i+1 to entry i
                    ij.add_value(i, (i + 1) as f64);
                }
                ij.assemble(rank).to_serial(rank)
            });
            for v in out {
                let expected: Vec<f64> =
                    (0..n).map(|i| (i + 1) as f64 * p as f64).collect();
                assert_eq!(v, expected, "p={p}");
            }
        }
    }

    #[test]
    fn vector_off_rank_duplicates_sum() {
        let out = Comm::run(2, |rank| {
            let dist = RowDist::block(4, 2);
            let mut ij = IjVector::new(rank, dist);
            if rank.rank() == 1 {
                // Rank 1 contributes twice to rank 0's entry 0.
                ij.add_value(0, 2.0);
                ij.add_value(0, 3.0);
            }
            ij.assemble(rank).to_serial(rank)
        });
        assert_eq!(out[0][0], 5.0);
    }

    #[test]
    fn empty_assembly_yields_zero_structures() {
        Comm::run(2, |rank| {
            let dist = RowDist::block(4, 2);
            let a = IjMatrix::new(rank, dist.clone(), dist.clone()).assemble(rank);
            assert_eq!(a.local_nnz(), 0);
            let v = IjVector::new(rank, dist).assemble(rank);
            assert!(v.local.iter().all(|&x| x == 0.0));
        });
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_entry_panics() {
        Comm::run(1, |rank| {
            let dist = RowDist::block(2, 1);
            let mut ij = IjMatrix::new(rank, dist.clone(), dist);
            ij.add_value(5, 0, 1.0);
        });
    }
}
