//! The removal policies: one per algorithm of the paper (plus the
//! rejected naive directed rule, kept as an ablation).

use dsg_graph::density;

use super::{DegreeStore, KernelState, RemovalPolicy, Selection};

/// The kernel's one `(degree, id)` order as an integer key: ascending
/// degree as `partial_cmp` orders it (`-0.0 == 0.0`), ties by ascending
/// id. `deg` must not be NaN (a NaN sorts past ±∞); the id is the key's
/// low 32 bits.
#[inline]
pub(crate) fn order_key(deg: f64, id: u32) -> u128 {
    // `+ 0.0` folds -0.0 into 0.0. Flipping the sign bit of a
    // non-negative and every bit of a negative makes the IEEE bits
    // ascend with the value.
    let bits = (deg + 0.0).to_bits();
    let ordered = bits ^ (((bits as i64 >> 63) as u64) | 1 << 63);
    (u128::from(ordered) << 32) | u128::from(id)
}

/// Algorithm 1's rule: remove every node whose induced degree is at most
/// `2(1+ε)·ρ(S)`.
///
/// The fallback (reachable only with biased, e.g. Count-Min, degree
/// estimates) evicts the `ε/(1+ε)·|S|` smallest-estimate nodes — at
/// least one — which preserves the `O(log_{1+ε} n)` pass bound no matter
/// how biased the oracle is.
#[derive(Clone, Copy, Debug)]
pub struct ThresholdPolicy {
    epsilon: f64,
}

impl ThresholdPolicy {
    /// Creates the policy; `epsilon ≥ 0`.
    pub fn new(epsilon: f64) -> Self {
        assert!(epsilon >= 0.0, "epsilon must be non-negative");
        ThresholdPolicy { epsilon }
    }
}

impl RemovalPolicy for ThresholdPolicy {
    fn finished(&self, state: &KernelState) -> bool {
        state.sides[0].alive.is_empty()
    }

    fn select<S: DegreeStore + ?Sized>(
        &mut self,
        _store: &mut S,
        state: &KernelState,
        buf: &mut Vec<u32>,
    ) -> Selection {
        let side = &state.sides[0];
        let rho = density::undirected(state.total_weight, side.alive.len());
        let threshold = density::undirected_threshold(rho, self.epsilon);
        for u in side.alive.iter() {
            if side.deg[u as usize] <= threshold {
                buf.push(u);
            }
        }
        Selection {
            side: 0,
            density: rho,
            threshold,
        }
    }

    fn fallback<S: DegreeStore + ?Sized>(
        &mut self,
        _store: &mut S,
        state: &KernelState,
        buf: &mut Vec<u32>,
    ) {
        let side = &state.sides[0];
        let mut by_estimate: Vec<u128> = side
            .alive
            .iter()
            .map(|u| {
                let d = side.deg[u as usize];
                assert!(!d.is_nan(), "degree estimates are never NaN");
                order_key(d, u)
            })
            .collect();
        by_estimate.sort_unstable();
        let target =
            ((self.epsilon / (1.0 + self.epsilon)) * side.alive.len() as f64).ceil() as usize;
        let target = target.clamp(1, side.alive.len());
        buf.extend(by_estimate[..target].iter().map(|&key| key as u32));
    }
}

/// Algorithm 2's rule: of the nodes at or below the `2(1+ε)·ρ(S)`
/// threshold, remove only the `ε/(1+ε)·|S|` smallest-degree ones (ties
/// by id), stopping once `|S| < k`.
#[derive(Clone, Debug)]
pub struct KFloorPolicy {
    k: usize,
    epsilon: f64,
    /// [`order_key`]s of this pass's candidates.
    candidates: Vec<u128>,
}

impl KFloorPolicy {
    /// Creates the policy; `epsilon > 0` (with `ε = 0` the prescribed
    /// removal count is zero and the algorithm cannot progress).
    pub fn new(k: usize, epsilon: f64) -> Self {
        assert!(epsilon > 0.0, "Algorithm 2 requires epsilon > 0");
        KFloorPolicy {
            k,
            epsilon,
            candidates: Vec::new(),
        }
    }
}

impl RemovalPolicy for KFloorPolicy {
    fn finished(&self, state: &KernelState) -> bool {
        state.sides[0].alive.len() < self.k
    }

    fn select<S: DegreeStore + ?Sized>(
        &mut self,
        _store: &mut S,
        state: &KernelState,
        buf: &mut Vec<u32>,
    ) -> Selection {
        let side = &state.sides[0];
        let rho = density::undirected(state.total_weight, side.alive.len());
        let threshold = density::undirected_threshold(rho, self.epsilon);

        // A~(S): all nodes at or below the threshold.
        self.candidates.clear();
        for u in side.alive.iter() {
            let d = side.deg[u as usize];
            if d <= threshold {
                self.candidates.push(order_key(d, u));
            }
        }
        // |A(S)| = ε/(1+ε)·|S|, rounded up so progress is guaranteed.
        // Lemma 4's counting argument gives |A~| > ε/(1+ε)·|S| with exact
        // degrees, so the clamp only matters under estimation error.
        let target =
            ((self.epsilon / (1.0 + self.epsilon)) * side.alive.len() as f64).ceil() as usize;
        let target = target.clamp(1, self.candidates.len().max(1));
        let removed = target.min(self.candidates.len());
        // Only the removed prefix needs sorting.
        if removed < self.candidates.len() {
            self.candidates.select_nth_unstable(removed);
        }
        let prefix = &mut self.candidates[..removed];
        prefix.sort_unstable();
        buf.extend(prefix.iter().map(|&key| key as u32));
        Selection {
            side: 0,
            density: rho,
            threshold,
        }
    }
}

/// Charikar's rule: remove the single minimum-degree node per pass
/// (extracted through [`DegreeStore::extract_min`], so priority-structure
/// backends keep the peel `O(m + n)` overall).
#[derive(Clone, Copy, Debug, Default)]
pub struct MinNodePolicy;

impl RemovalPolicy for MinNodePolicy {
    fn finished(&self, state: &KernelState) -> bool {
        state.sides[0].alive.is_empty()
    }

    fn select<S: DegreeStore + ?Sized>(
        &mut self,
        store: &mut S,
        state: &KernelState,
        buf: &mut Vec<u32>,
    ) -> Selection {
        let rho = density::undirected(state.total_weight, state.sides[0].alive.len());
        let u = store
            .extract_min(state, 0)
            .expect("a live minimum exists while the side is non-empty");
        buf.push(u);
        Selection {
            side: 0,
            density: rho,
            // The minimum degree is the natural "threshold" of this rule.
            threshold: state.sides[0].deg[u as usize],
        }
    }
}

/// Algorithm 3's size-based rule (§4.3): remove from `S` when
/// `|S|/|T| ≥ c` (nodes with out-degree into `T` at most
/// `(1+ε)·|E(S,T)|/|S|`), symmetrically from `T` otherwise.
#[derive(Clone, Copy, Debug)]
pub struct DirectedSizesPolicy {
    c: f64,
    epsilon: f64,
}

impl DirectedSizesPolicy {
    /// Creates the policy; `c > 0`, `epsilon ≥ 0`.
    pub fn new(c: f64, epsilon: f64) -> Self {
        assert!(c > 0.0, "ratio c must be positive");
        assert!(epsilon >= 0.0, "epsilon must be non-negative");
        DirectedSizesPolicy { c, epsilon }
    }
}

impl RemovalPolicy for DirectedSizesPolicy {
    fn finished(&self, state: &KernelState) -> bool {
        state.sides[0].alive.is_empty() || state.sides[1].alive.is_empty()
    }

    fn select<S: DegreeStore + ?Sized>(
        &mut self,
        _store: &mut S,
        state: &KernelState,
        buf: &mut Vec<u32>,
    ) -> Selection {
        let (s_len, t_len) = (state.sides[0].alive.len(), state.sides[1].alive.len());
        let rho = density::directed(state.total_weight, s_len, t_len);
        let from_s = s_len as f64 / t_len as f64 >= self.c;
        let side = usize::from(!from_s);
        let side_len = if from_s { s_len } else { t_len };
        let threshold = density::directed_threshold(state.total_weight, side_len, self.epsilon);
        let sd = &state.sides[side];
        for u in sd.alive.iter() {
            if sd.deg[u as usize] <= threshold {
                buf.push(u);
            }
        }
        Selection {
            side,
            density: rho,
            threshold,
        }
    }
}

/// The naive side-selection rule that §4.3 describes and rejects: compute
/// **both** candidate sets each pass, compare the maximum out-degree over
/// `A(S)` with the maximum in-degree over `B(T)`, and remove `A(S)` iff
/// `E(S, j*) ≥ c·E(i*, T)`. Same `(2+2ε)` guarantee, twice the selection
/// work — kept as an ablation.
#[derive(Clone, Debug)]
pub struct DirectedNaivePolicy {
    c: f64,
    epsilon: f64,
    b_set: Vec<u32>,
}

impl DirectedNaivePolicy {
    /// Creates the policy; `c > 0`, `epsilon ≥ 0`.
    pub fn new(c: f64, epsilon: f64) -> Self {
        assert!(c > 0.0, "ratio c must be positive");
        assert!(epsilon >= 0.0, "epsilon must be non-negative");
        DirectedNaivePolicy {
            c,
            epsilon,
            b_set: Vec::new(),
        }
    }
}

impl RemovalPolicy for DirectedNaivePolicy {
    fn finished(&self, state: &KernelState) -> bool {
        state.sides[0].alive.is_empty() || state.sides[1].alive.is_empty()
    }

    fn select<S: DegreeStore + ?Sized>(
        &mut self,
        _store: &mut S,
        state: &KernelState,
        buf: &mut Vec<u32>,
    ) -> Selection {
        let (s_side, t_side) = (&state.sides[0], &state.sides[1]);
        let (s_len, t_len) = (s_side.alive.len(), t_side.alive.len());
        let rho = density::directed(state.total_weight, s_len, t_len);

        // Both candidate sets — the cost the size-based rule avoids.
        let s_threshold = density::directed_threshold(state.total_weight, s_len, self.epsilon);
        let t_threshold = density::directed_threshold(state.total_weight, t_len, self.epsilon);
        buf.extend(
            s_side
                .alive
                .iter()
                .filter(|&u| s_side.deg[u as usize] <= s_threshold),
        );
        self.b_set.clear();
        self.b_set.extend(
            t_side
                .alive
                .iter()
                .filter(|&v| t_side.deg[v as usize] <= t_threshold),
        );
        let max_out_a = buf
            .iter()
            .map(|&u| s_side.deg[u as usize])
            .fold(0.0f64, f64::max);
        let max_in_b = self
            .b_set
            .iter()
            .map(|&v| t_side.deg[v as usize])
            .fold(0.0f64, f64::max);

        // E(S, j*) / E(i*, T) ≥ c -> remove A(S); cross-multiplied to
        // avoid dividing by a zero max out-degree.
        if max_in_b >= self.c * max_out_a {
            Selection {
                side: 0,
                density: rho,
                threshold: s_threshold,
            }
        } else {
            std::mem::swap(buf, &mut self.b_set);
            Selection {
                side: 1,
                density: rho,
                threshold: t_threshold,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{peel_with_capture, CsrUndirectedStore};
    use dsg_graph::{gen, CsrUndirected, EdgeList};
    use proptest::prelude::*;

    #[test]
    fn order_key_matches_partial_cmp_then_id() {
        let degrees = [
            f64::NEG_INFINITY,
            -1e300,
            -3.0,
            -1e-12,
            -f64::MIN_POSITIVE,
            -5e-324,
            -0.0,
            0.0,
            5e-324,
            f64::MIN_POSITIVE / 2.0,
            f64::MIN_POSITIVE,
            1e-12,
            1.0,
            2.0,
            3.0,
            1e300,
            f64::INFINITY,
        ];
        let ids = [0, 1, 7, u32::MAX];
        let pairs: Vec<(f64, u32)> = degrees
            .iter()
            .flat_map(|&d| ids.iter().map(move |&id| (d, id)))
            .collect();
        for &(da, ia) in &pairs {
            assert_eq!(order_key(da, ia) as u32, ia);
            for &(db, ib) in &pairs {
                let want = da.partial_cmp(&db).unwrap().then(ia.cmp(&ib));
                let got = order_key(da, ia).cmp(&order_key(db, ib));
                assert_eq!(got, want, "({da:e}, {ia}) vs ({db:e}, {ib})");
            }
        }
    }

    /// A NaN weight leaves no node under the threshold; the fallback
    /// refuses to rank NaN degrees rather than peel to a meaningless end.
    #[test]
    #[should_panic(expected = "degree estimates are never NaN")]
    fn fallback_rejects_nan_degrees() {
        let mut g = gen::gnp(20, 0.3, 5);
        let mut weights = vec![1.0; g.edges.len()];
        weights[0] = f64::NAN;
        g.weights = Some(weights);
        let csr = CsrUndirected::from_edge_list(&g);
        peel_with_capture(
            &mut CsrUndirectedStore::new(&csr),
            &mut ThresholdPolicy::new(0.5),
            false,
        );
    }

    /// Algorithm 2's rule as a full `sort_by(partial_cmp)` of every
    /// candidate — the reference the keyed selection must reproduce.
    struct SortByReference {
        k: usize,
        epsilon: f64,
    }

    impl RemovalPolicy for SortByReference {
        fn finished(&self, state: &KernelState) -> bool {
            state.sides[0].alive.len() < self.k
        }

        fn select<S: DegreeStore + ?Sized>(
            &mut self,
            _store: &mut S,
            state: &KernelState,
            buf: &mut Vec<u32>,
        ) -> Selection {
            let side = &state.sides[0];
            let rho = density::undirected(state.total_weight, side.alive.len());
            let threshold = density::undirected_threshold(rho, self.epsilon);
            let mut candidates: Vec<(f64, u32)> = side
                .alive
                .iter()
                .map(|u| (side.deg[u as usize], u))
                .filter(|&(d, _)| d <= threshold)
                .collect();
            let target =
                ((self.epsilon / (1.0 + self.epsilon)) * side.alive.len() as f64).ceil() as usize;
            let target = target.clamp(1, candidates.len().max(1));
            candidates.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
            let removed = target.min(candidates.len());
            buf.extend(candidates[..removed].iter().map(|&(_, u)| u));
            Selection {
                side: 0,
                density: rho,
                threshold,
            }
        }
    }

    /// A sparse random graph; weighted ones draw from three weights, so
    /// degree ties stay as common as on unweighted graphs.
    fn tied_graph(n: u32, p: f64, seed: u64, weighted: bool) -> EdgeList {
        let mut g = gen::gnp(n, p, seed);
        if weighted {
            let weights =
                (0..g.edges.len() as u64).map(|i| [0.5, 1.0, 2.0][((i * 7 + seed) % 3) as usize]);
            g.weights = Some(weights.collect());
        }
        g
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The keyed selection removes the same nodes in the same order,
        /// records the same passes and the same `PeelTrace` as the full
        /// sort.
        #[test]
        fn k_floor_selection_matches_sort_by_reference(
            n in 8u32..90,
            p in 0.02f64..0.3,
            seed in 0u64..1 << 32,
            weighted in any::<bool>(),
            k_share in 0.0f64..1.0,
            eps_idx in 0usize..4,
        ) {
            let csr = CsrUndirected::from_edge_list(&tied_graph(n, p, seed, weighted));
            let k = 1 + ((n - 1) as f64 * k_share) as usize;
            let epsilon = [0.05, 0.3, 1.0, 2.5][eps_idx];
            let mut policy = KFloorPolicy::new(k, epsilon);
            let (run, trace) = peel_with_capture(&mut CsrUndirectedStore::new(&csr), &mut policy, true);
            let mut reference = SortByReference { k, epsilon };
            let (want, want_trace) = peel_with_capture(&mut CsrUndirectedStore::new(&csr), &mut reference, true);
            prop_assert_eq!(run.removal_log, want.removal_log);
            prop_assert_eq!(run.trace, want.trace);
            // Debug output spells every f64 exactly, -0.0 included.
            prop_assert_eq!(format!("{trace:?}"), format!("{want_trace:?}"));
        }
    }
}
