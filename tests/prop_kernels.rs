//! Property tests pinning the hot-path kernel contract: every blocked,
//! fused, or parallel code path in `faircap::causal::estimate::kernel`,
//! the moments-based linear estimator, and the KD-tree matching engine
//! must be **bit-identical** (`f64::to_bits`, not tolerance) to the naive
//! reference implementations preserved in
//! `faircap::causal::estimate::reference`. Bit-identity is what lets the
//! engine pick block sizes, worker counts, caches, and search strategies
//! purely on cost grounds — the answer never depends on the path taken.

use faircap::causal::estimate::{kernel, linear, matching, reference, MIN_ARM_SIZE};
use faircap::causal::{Estimate, HotStats, MomentsCache, Result};
use faircap::table::{DataFrame, Mask};
use proptest::prelude::*;

/// Worker counts exercised against the serial (`workers = 1`) reference.
const WORKER_GRID: [usize; 3] = [2, 3, 8];

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

fn matrix_bits(m: &faircap::causal::linalg::Matrix) -> Vec<u64> {
    let k = m.rows();
    (0..k)
        .flat_map(|r| (0..k).map(move |c| (r, c)))
        .map(|(r, c)| m.get(r, c).to_bits())
        .collect()
}

fn estimate_bits(e: &Estimate) -> [u64; 4] {
    [
        e.cate.to_bits(),
        e.std_err.to_bits(),
        e.t_stat.to_bits(),
        e.p_value.to_bits(),
    ]
}

/// An estimate's bits and arm sizes, or `None` for a refusal: two results
/// agree when their verdicts do.
fn verdict(r: &Result<Estimate>) -> Option<([u64; 4], usize, usize)> {
    r.as_ref()
        .ok()
        .map(|e| (estimate_bits(e), e.n_treated, e.n_control))
}

/// Covariates of [`linear_frame`] an adjustment set draws from: `c2`
/// duplicates `c` (collinear one-hot blocks) and `f2` is `2·f` (collinear
/// numerics), both of which force the ridge ladder.
const LINEAR_COVARIATES: [&str; 6] = ["c", "c2", "i", "f", "f2", "b"];

/// A mixed-type frame for the linear-estimator oracle: categorical `c`
/// (and its copy `c2`), int `i`, float `f` (and `f2 = 2·f`), bool `b`,
/// outcome `y`.
fn linear_frame(
    codes: &[u8],
    ints: &[i64],
    floats: &[f64],
    bools: &[bool],
    y: &[f64],
) -> DataFrame {
    let levels = ["a", "b", "c", "d", "e"];
    let c: Vec<&str> = codes.iter().map(|&k| levels[k as usize % 5]).collect();
    DataFrame::builder()
        .cat("c", &c)
        .cat("c2", &c)
        .int("i", ints.to_vec())
        .float("f", floats.to_vec())
        .float("f2", floats.iter().map(|v| 2.0 * v).collect())
        .bool("b", bools.to_vec())
        .float("y", y.to_vec())
        .build()
        .unwrap()
}

/// The adjustment set whose covariates are the set bits of `pick`.
fn pick_adjustment(pick: u8) -> Vec<String> {
    LINEAR_COVARIATES
        .iter()
        .enumerate()
        .filter(|(i, _)| pick >> i & 1 == 1)
        .map(|(_, name)| name.to_string())
        .collect()
}

/// `count` rows of `group`, every `stride`-th one from `from`, wrapping.
fn pick_rows(group: &[usize], count: usize, from: usize, stride: usize) -> Vec<usize> {
    let mut rows: Vec<usize> = (0..count.min(group.len()))
        .map(|j| group[(from + j * stride) % group.len()])
        .collect();
    rows.sort_unstable();
    rows.dedup();
    rows
}

/// Treatments for a group: arms at `MIN_ARM_SIZE ± 1` on either side, plus
/// the random `extra` masks.
fn treatments(group: &Mask, n_rows: usize, from: usize, extra: &[Vec<bool>]) -> Vec<Mask> {
    let rows = group.to_indices();
    let mut out = Vec::new();
    for size in [MIN_ARM_SIZE - 1, MIN_ARM_SIZE, MIN_ARM_SIZE + 1] {
        let arm = pick_rows(&rows, size, from, 3);
        let rest: Vec<usize> = rows.iter().copied().filter(|r| !arm.contains(r)).collect();
        out.push(Mask::from_indices(n_rows, &arm));
        out.push(Mask::from_indices(n_rows, &rest));
    }
    out.extend(extra.iter().map(|bits| Mask::from_bools(&bits[..n_rows])));
    out
}

/// `k` random finite columns of `n` rows each.
fn columns_strategy(n: usize, k: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(-10.0f64..10.0, n), k)
}

/// A random mixed-type frame plus group/treated masks sized so the
/// matching estimator always has both arms: the first ten rows alternate
/// treated/control five-and-five and sweep all three category levels.
fn matching_frame(
    z_codes: &[u8],
    noise: &[f64],
    y: &[f64],
    treated_bits: &[bool],
) -> (DataFrame, Mask, Mask) {
    let n = z_codes.len();
    let levels = ["a", "b", "c"];
    let z: Vec<&str> = (0..n)
        .map(|i| {
            if i < 10 {
                levels[i % 3]
            } else {
                levels[z_codes[i] as usize % 3]
            }
        })
        .collect();
    let t: Vec<bool> = (0..n)
        .map(|i| if i < 10 { i % 2 == 0 } else { treated_bits[i] })
        .collect();
    let df = DataFrame::builder()
        .cat("z", &z)
        .float("noise", noise.to_vec())
        .float("y", y.to_vec())
        .build()
        .unwrap();
    let group = Mask::from_bools(&vec![true; n]);
    let treated = Mask::from_bools(&t);
    (df, group, treated)
}

proptest! {
    /// Fused columnar design assembly == naive row-major assembly, serial
    /// and parallel.
    #[test]
    fn design_assembly_matches_naive(
        z_codes in prop::collection::vec(0u8..3, 40..160),
        noise in prop::collection::vec(-5.0f64..5.0, 160),
        y in prop::collection::vec(-5.0f64..5.0, 160),
        treated_bits in prop::collection::vec(any::<bool>(), 160),
        group_bits in prop::collection::vec(any::<bool>(), 160),
    ) {
        let n = z_codes.len();
        let (df, _, _) = matching_frame(&z_codes, &noise[..n], &y[..n], &treated_bits[..n]);
        // A random, non-empty subgroup (row 0 always in).
        let mut gb = group_bits[..n].to_vec();
        gb[0] = true;
        let group = Mask::from_bools(&gb);
        let adjustment = vec!["z".to_owned(), "noise".to_owned()];

        let naive = reference::design_columns_naive(&df, &adjustment, &group).unwrap();
        for workers in [1, 2, 8] {
            let fused = kernel::build_columns(&df, &adjustment, &group, workers, &mut 0).unwrap();
            prop_assert_eq!(fused.k(), naive.len());
            for (fc, nc) in fused.cols().iter().zip(&naive) {
                prop_assert_eq!(bits(fc), bits(nc));
            }
        }
    }

    /// The moments-based linear estimator == the row-major oracle, bit
    /// for bit and verdict for verdict: mixed covariate types, group levels
    /// absent from the group, collinear blocks, arms at the size limit,
    /// injected non-finite values, and one cached moments object reused
    /// across every treatment of the group.
    #[test]
    fn linear_moments_match_naive(
        codes in prop::collection::vec(0u8..5, 24..140),
        ints in prop::collection::vec(-50i64..50, 140),
        floats in prop::collection::vec(-8.0f64..8.0, 140),
        bools in prop::collection::vec(any::<bool>(), 140),
        y in prop::collection::vec(-20.0f64..20.0, 140),
        group_bits in prop::collection::vec(any::<bool>(), 140),
        extra in prop::collection::vec(prop::collection::vec(any::<bool>(), 140), 3),
        pick in 0u8..64,
        poison in (0usize..4, 0usize..140),
        from in 0usize..40,
    ) {
        let n_rows = codes.len();
        let (mut floats, mut y) = (floats[..n_rows].to_vec(), y[..n_rows].to_vec());
        // Level "e" (code 4) only outside the group: a level the group
        // lacks must add no column.
        let mut group_bits = group_bits[..n_rows].to_vec();
        for (g, &c) in group_bits.iter_mut().zip(&codes) {
            *g &= c != 4;
        }
        let (kind, row) = (poison.0, poison.1 % n_rows);
        match kind {
            1 => y[row] = f64::NAN,
            2 => floats[row] = f64::INFINITY,
            3 => y[row] = f64::NEG_INFINITY,
            _ => {}
        }
        let df = linear_frame(&codes, &ints[..n_rows], &floats, &bools[..n_rows], &y);
        let group = Mask::from_bools(&group_bits);
        let adjustment = pick_adjustment(pick);

        let cache = MomentsCache::with_capacity(2);
        let mut looked_up = 0u64;
        for treated in treatments(&group, n_rows, from, &extra) {
            let naive = reference::linear_naive(&df, &group, &treated, "y", &adjustment);
            let one_shot = linear::estimate(&df, &group, &treated, "y", &adjustment);
            prop_assert_eq!(verdict(&one_shot), verdict(&naive));
            let cached = linear::estimate_with(
                &df, &group, &treated, "y", &adjustment,
                Some((&cache, 7)), &mut HotStats::default(),
            );
            prop_assert_eq!(verdict(&cached), verdict(&naive));
            let n_t = group.intersect_count(&treated);
            if n_t >= MIN_ARM_SIZE && group.count() - n_t >= MIN_ARM_SIZE {
                looked_up += 1;
            }
        }
        // One build serves every treatment that reached the moments.
        let stats = cache.stats();
        prop_assert_eq!(stats.hits + stats.misses, looked_up);
        prop_assert!(stats.misses <= 1);
    }

    /// The fused IRLS reduction (weighted gram + score) and the per-arm
    /// masked gram == their naive counterparts, bitwise, at every worker
    /// count.
    #[test]
    fn irls_and_arm_kernels_match_naive(
        cols in (20usize..200, 1usize..5).prop_flat_map(|(n, k)| columns_strategy(n, k)),
        w_seed in prop::collection::vec(0.0f64..4.0, 200),
        r_seed in prop::collection::vec(-2.0f64..2.0, 200),
        arm_bits in prop::collection::vec(any::<bool>(), 200),
    ) {
        let n = cols[0].len();
        let (w, r) = (&w_seed[..n], &r_seed[..n]);
        let arm: Vec<f64> = arm_bits[..n].iter().map(|&b| b as u8 as f64).collect();
        let (naive_wg, naive_score) = reference::weighted_gram_score_naive(&cols, w, r);
        let (naive_ag, naive_rhs) = reference::arm_gram_xty_naive(&cols, r, &arm);
        for workers in std::iter::once(1).chain(WORKER_GRID) {
            let (wg, score) = kernel::weighted_gram_score(&cols, w, r, workers, &mut 0);
            let (ag, rhs) = kernel::arm_gram_xty(&cols, r, &arm, workers, &mut 0);
            prop_assert_eq!(matrix_bits(&wg), matrix_bits(&naive_wg));
            prop_assert_eq!(bits(&score), bits(&naive_score));
            prop_assert_eq!(matrix_bits(&ag), matrix_bits(&naive_ag));
            prop_assert_eq!(bits(&rhs), bits(&naive_rhs));
        }
    }

    /// Column-streaming X·β == naive per-row dot products, bitwise.
    #[test]
    fn mat_vec_matches_naive(
        cols in (10usize..150, 1usize..6).prop_flat_map(|(n, k)| columns_strategy(n, k)),
        beta_seed in prop::collection::vec(-3.0f64..3.0, 6),
    ) {
        let beta = &beta_seed[..cols.len()];
        prop_assert_eq!(
            bits(&kernel::mat_vec_columns(&cols, beta)),
            bits(&reference::mat_vec_naive(&cols, beta))
        );
    }

    /// KD-tree matching == brute-force matching, bitwise, on tie-heavy
    /// categorical designs (where tie-inclusive cutoffs do real work),
    /// across worker counts and with a prebuilt, reused index.
    #[test]
    fn tree_matching_matches_brute(
        z_codes in prop::collection::vec(0u8..3, 40..160),
        noise in prop::collection::vec(-1.0f64..1.0, 160),
        y in prop::collection::vec(-5.0f64..5.0, 160),
        treated_bits in prop::collection::vec(any::<bool>(), 160),
    ) {
        let n = z_codes.len();
        let (df, group, treated) = matching_frame(&z_codes, &noise[..n], &y[..n], &treated_bits[..n]);
        let adjustment = vec!["z".to_owned(), "noise".to_owned()];

        let brute = matching::estimate_with(
            &df, &group, &treated, "y", &adjustment,
            &matching::MatchParams {
                index: None,
                strategy: matching::MatchStrategy::Brute,
                workers: 1,
            },
            &mut HotStats::default(),
        )
        .unwrap();

        let index = matching::MatchIndex::build(
            &df, &group, "y", &adjustment, 1, &mut HotStats::default(),
        )
        .unwrap();
        for workers in [1, 2, 8] {
            for index_opt in [None, Some(&index)] {
                let tree = matching::estimate_with(
                    &df, &group, &treated, "y", &adjustment,
                    &matching::MatchParams {
                        index: index_opt,
                        strategy: matching::MatchStrategy::Tree,
                        workers,
                    },
                    &mut HotStats::default(),
                )
                .unwrap();
                prop_assert_eq!(estimate_bits(&tree), estimate_bits(&brute));
                prop_assert_eq!(tree.n_treated, brute.n_treated);
                prop_assert_eq!(tree.n_control, brute.n_control);
            }
        }
    }
}

/// Groups of every size from 2 to 30 rows, so `n` crosses `k + 1` (the
/// smallest group the regression accepts) for several adjustment sets,
/// with arms at `MIN_ARM_SIZE ± 1`: the moments path must give the
/// oracle's verdict and bits at each boundary, and both verdicts occur.
#[test]
fn linear_moments_match_naive_at_size_boundaries() {
    let n_rows = 40;
    let codes: Vec<u8> = (0..n_rows).map(|r| (r * 7 % 3) as u8).collect();
    let ints: Vec<i64> = (0..n_rows as i64).map(|r| r * 5 % 13 - 6).collect();
    let floats: Vec<f64> = (0..n_rows)
        .map(|r| (r * 11 % 17) as f64 * 0.37 - 3.0)
        .collect();
    let bools: Vec<bool> = (0..n_rows).map(|r| r % 4 == 1).collect();
    let y: Vec<f64> = (0..n_rows)
        .map(|r| (r * 13 % 23) as f64 * 0.91 - 9.0)
        .collect();
    let df = linear_frame(&codes, &ints, &floats, &bools, &y);
    let (mut accepted, mut refused) = (0, 0);
    for pick in [0b000001u8, 0b001101, 0b101101, 0b111111] {
        let adjustment = pick_adjustment(pick);
        for size in 2..=30 {
            let group = Mask::from_indices(n_rows, &(0..size).collect::<Vec<_>>());
            for treated in treatments(&group, n_rows, 1, &[]) {
                let naive = reference::linear_naive(&df, &group, &treated, "y", &adjustment);
                let moments = linear::estimate(&df, &group, &treated, "y", &adjustment);
                assert_eq!(
                    verdict(&moments),
                    verdict(&naive),
                    "size {size}, pick {pick:#b}"
                );
                match naive {
                    Ok(_) => accepted += 1,
                    Err(_) => refused += 1,
                }
            }
        }
    }
    assert!(accepted > 0 && refused > 0);
}
