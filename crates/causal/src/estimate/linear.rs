//! OLS linear-adjustment CATE estimator over group moments.
//!
//! Fits `O ~ 1 + T + Z` on the subgroup rows, where `T` is the 0/1 treatment
//! indicator and `Z` the one-hot-encoded adjustment covariates (first level
//! dropped per covariate; numeric covariates enter directly). The coefficient
//! on `T` is the CATE; its standard error comes from `σ̂²(XᵀX)⁻¹`.
//!
//! # Group moments
//!
//! Within one subgroup every intervention of the lattice sweep shares the
//! adjustment covariates `Z`; only `T` changes. [`GroupMoments`] holds what
//! does not depend on `T`, built once per `(subgroup, adjustment set)`:
//!
//! * the gram of `[1, Z]` and `[1, Z]ᵀy`, each entry summed over the
//!   group's rows in ascending row order;
//! * the group-dense covariates (per one-hot block, each row's level; per
//!   numeric block, its values) and the outcome `y`.
//!
//! Per treatment, one pass over the treated rows gives `n_t`, `tᵀZ` and
//! `tᵀy`. They border the cached gram into the `[1, T, Z]` normal
//! equations, which are factored once (`linalg::SpdFactor`, with the ridge
//! ladder): the same factor yields `β` and the `(1,1)` entry of `(XᵀX)⁻¹`.
//! The residual sum of squares comes from one pass over the group in
//! column order (intercept, `T`, then each covariate block through its
//! `β` entry), O(rows · adjustment columns) instead of O(rows · design
//! width).
//!
//! # Bit identity
//!
//! Every estimate has the bits of the row-major oracle
//! [`reference::linear_naive`](super::reference::linear_naive)
//! (property-tested in `tests/prop_kernels.rs`):
//!
//! * one-hot × one-hot and `T` × one-hot entries are integer counts, exact
//!   in f64;
//! * numeric and outcome entries are sums in ascending row order, as in
//!   the full design; the rows a masked sum skips only ever add ±0 there,
//!   which leaves a sum unchanged. That needs finite inputs: a group with
//!   a non-finite outcome or numeric covariate is refused, as the full
//!   design's residuals would be non-finite;
//! * the Cholesky factor does not depend on the right-hand side, so one
//!   factor gives the bits of separate `solve_spd` and `inverse_spd` calls;
//! * a non-finite `β` is refused: the full design's fitted values would
//!   pick up `0·∞ = NaN`.
//!
//! # Caching
//!
//! Through [`EstimateCtx`](super::EstimateCtx) the
//! [`CateEngine`](crate::cate::CateEngine) hands in its
//! [`MomentsCache`], keyed by `(group fingerprint, adjustment set)` and
//! LRU-bounded by a constant entry count. A call without one
//! ([`estimate`]) builds its moments and uses them once.

use super::{design, kernel, Estimate, HotStats, MIN_ARM_SIZE};
use crate::cate::MomentsCache;
use crate::error::{CausalError, Result};
use crate::linalg::{Matrix, SpdFactor};
use faircap_table::stats::t_sf_two_sided;
use faircap_table::{Column, DataFrame, Mask};
use std::sync::Arc;
use std::time::Instant;

/// Estimate the CATE by linear regression. See module docs.
pub fn estimate(
    df: &DataFrame,
    group: &Mask,
    treated: &Mask,
    outcome: &str,
    adjustment: &[String],
) -> Result<Estimate> {
    estimate_with(
        df,
        group,
        treated,
        outcome,
        adjustment,
        None,
        &mut HotStats::default(),
    )
}

/// Linear-regression estimate from the group's moments: taken from
/// `moments_cache` (keyed by the subgroup fingerprint) when given, built
/// for this call otherwise. The lookup or build is charged to
/// `stats.build_ns`.
pub fn estimate_with(
    df: &DataFrame,
    group: &Mask,
    treated: &Mask,
    outcome: &str,
    adjustment: &[String],
    moments_cache: Option<(&MomentsCache, u64)>,
    stats: &mut HotStats,
) -> Result<Estimate> {
    let n = group.count();
    let n_treated = group.intersect_count(treated);
    let n_control = n - n_treated;
    if n_treated < MIN_ARM_SIZE || n_control < MIN_ARM_SIZE {
        return Err(CausalError::Estimation(format!(
            "insufficient overlap: {n_treated} treated / {n_control} control"
        )));
    }
    let t0 = Instant::now();
    let build = || GroupMoments::build(df, group, outcome, adjustment);
    let moments = match moments_cache {
        Some((cache, group_fp)) => cache.get_or_build(group_fp, adjustment, build)?,
        None => Arc::new(build()?),
    };
    stats.build_ns += t0.elapsed().as_nanos() as u64;
    moments.estimate(group, treated, n_treated)
}

/// One adjustment covariate over the group's rows, group-dense. Its
/// `[1, Z]` columns start at `col`.
#[derive(Debug)]
enum DenseBlock {
    /// Each row's level (`of_row`) among the `levels` observed in the
    /// group; level `l ≥ 1` is column `col + l − 1`, level 0 the dropped
    /// reference.
    OneHot {
        col: usize,
        levels: usize,
        of_row: Vec<u32>,
    },
    /// Each row's value, in column `col`.
    Numeric { col: usize, values: Vec<f64> },
}

impl DenseBlock {
    /// Gather covariate `name` over the group's `rows`, encoded as
    /// [`design::CovariateBlock`] encodes it.
    fn gather(df: &DataFrame, name: &str, rows: &[usize], col: usize) -> Result<DenseBlock> {
        Ok(match df.column(name)? {
            Column::Cat(c) => {
                let (remap, levels) =
                    design::observed_levels(c.codes(), c.cardinality(), rows.iter().copied());
                let codes = c.codes();
                DenseBlock::OneHot {
                    col,
                    levels,
                    of_row: rows.iter().map(|&i| remap[codes[i] as usize]).collect(),
                }
            }
            column => DenseBlock::Numeric {
                col,
                values: rows
                    .iter()
                    .map(|&i| column.get_f64(i).unwrap_or(0.0))
                    .collect(),
            },
        })
    }

    /// First `[1, Z]` column.
    fn col(&self) -> usize {
        match self {
            DenseBlock::OneHot { col, .. } | DenseBlock::Numeric { col, .. } => *col,
        }
    }

    /// Number of `[1, Z]` columns.
    fn width(&self) -> usize {
        match self {
            DenseBlock::OneHot { levels, .. } => levels.saturating_sub(1),
            DenseBlock::Numeric { .. } => 1,
        }
    }

    /// Per `[1, Z]` column of this block, the sum of `w(r)` over the rows
    /// `r` (ascending) where the column is set, each term scaled by the
    /// column's value. One-hot columns count `w ≡ 1` exactly.
    fn column_sums(&self, rows: impl Iterator<Item = usize>, w: impl Fn(usize) -> f64) -> Vec<f64> {
        match self {
            DenseBlock::OneHot { levels, of_row, .. } => {
                let mut acc = vec![0.0f64; *levels];
                for r in rows {
                    acc[of_row[r] as usize] += w(r);
                }
                acc.into_iter().skip(1).collect()
            }
            DenseBlock::Numeric { values, .. } => {
                let mut acc = 0.0f64;
                for r in rows {
                    acc += values[r] * w(r);
                }
                vec![acc]
            }
        }
    }
}

/// The treatment-independent part of one subgroup's linear regression
/// under one adjustment set (see the module docs).
#[derive(Debug)]
pub struct GroupMoments {
    /// Outcome over the group's rows.
    y: Vec<f64>,
    /// Adjustment covariates over the group's rows.
    blocks: Vec<DenseBlock>,
    /// Width of `[1, Z]`.
    p: usize,
    /// `[1, Z]ᵀ[1, Z]`, row-major `p × p`.
    gram: Vec<f64>,
    /// `[1, Z]ᵀy`.
    zty: Vec<f64>,
    /// Whether every outcome and numeric covariate value is finite.
    finite: bool,
}

impl GroupMoments {
    /// Build the moments of `group` for `outcome` under `adjustment`.
    /// Every gram and `[1, Z]ᵀy` entry is a count or a sum in ascending
    /// row order.
    pub(crate) fn build(
        df: &DataFrame,
        group: &Mask,
        outcome: &str,
        adjustment: &[String],
    ) -> Result<GroupMoments> {
        let rows = group.to_indices();
        let n = rows.len();
        let y = kernel::gather_outcome(df, outcome, group)?;
        let mut blocks = Vec::with_capacity(adjustment.len());
        let mut p = 1;
        for name in adjustment {
            let block = DenseBlock::gather(df, name, &rows, p)?;
            p += block.width();
            blocks.push(block);
        }
        let finite = y.iter().all(|v| v.is_finite())
            && blocks.iter().all(|b| match b {
                DenseBlock::Numeric { values, .. } => values.iter().all(|v| v.is_finite()),
                DenseBlock::OneHot { .. } => true,
            });

        let mut gram = vec![0.0f64; p * p];
        let mut set = |i: usize, j: usize, v: f64| {
            gram[i * p + j] = v;
            gram[j * p + i] = v;
        };
        let mut zty = vec![0.0f64; p];
        set(0, 0, n as f64);
        zty[0] = y.iter().fold(0.0, |acc, v| acc + v);
        for (a, block_a) in blocks.iter().enumerate() {
            let col_a = block_a.col();
            // Intercept row, diagonal and `Zᵀy` of block a.
            let ones = block_a.column_sums(0..n, |_| 1.0);
            for (j, &v) in ones.iter().enumerate() {
                set(0, col_a + j, v);
            }
            match block_a {
                DenseBlock::OneHot { .. } => {
                    for (j, &v) in ones.iter().enumerate() {
                        set(col_a + j, col_a + j, v);
                    }
                }
                DenseBlock::Numeric { values, .. } => {
                    set(col_a, col_a, block_a.column_sums(0..n, |r| values[r])[0]);
                }
            }
            for (j, v) in block_a.column_sums(0..n, |r| y[r]).into_iter().enumerate() {
                zty[col_a + j] = v;
            }
            // Cross terms with every later block.
            for block_b in &blocks[a + 1..] {
                cross_terms(block_a, block_b, n, &mut set);
            }
        }
        Ok(GroupMoments {
            y,
            blocks,
            p,
            gram,
            zty,
            finite,
        })
    }

    /// The OLS estimate for `treated` within `group` (the mask these
    /// moments were built from), `n_treated` being their overlap.
    fn estimate(&self, group: &Mask, treated: &Mask, n_treated: usize) -> Result<Estimate> {
        let n = self.y.len();
        let n_control = n - n_treated;
        let p = self.p;
        let k = p + 1;
        if n <= k + 1 {
            return Err(CausalError::Estimation(format!(
                "too few rows ({n}) for {k} regressors"
            )));
        }
        if !self.finite {
            return Err(CausalError::Estimation(
                "non-finite outcome or covariate value in the group".into(),
            ));
        }

        // Group-dense indices of the treated rows, ascending.
        let t_words = treated.as_words();
        let mut t_rows: Vec<usize> = Vec::with_capacity(n_treated);
        let mut base = 0usize;
        group.view().for_each_set_word(|wi, g| {
            let mut w = g & t_words[wi];
            while w != 0 {
                let below = g & ((1u64 << w.trailing_zeros()) - 1);
                t_rows.push(base + below.count_ones() as usize);
                w &= w - 1;
            }
            base += g.count_ones() as usize;
        });

        // Normal equations of [1, T, Z]: [1, Z] column c sits at design
        // column c (intercept) or c + 1; the T row is tᵀ[1, T, Z].
        let d = |c: usize| if c == 0 { 0 } else { c + 1 };
        let mut gram = Matrix::zeros(k, k);
        for i in 0..p {
            for j in 0..p {
                gram.set(d(i), d(j), self.gram[i * p + j]);
            }
        }
        let n_t = n_treated as f64;
        for (c, v) in [(0, n_t), (1, n_t)] {
            gram.set(1, c, v);
            gram.set(c, 1, v);
        }
        for b in &self.blocks {
            let sums = b.column_sums(t_rows.iter().copied(), |_| 1.0);
            for (j, v) in sums.into_iter().enumerate() {
                gram.set(1, b.col() + j + 1, v);
                gram.set(b.col() + j + 1, 1, v);
            }
        }
        let mut xty = Vec::with_capacity(k);
        xty.push(self.zty[0]);
        xty.push(t_rows.iter().fold(0.0, |acc, &r| acc + self.y[r]));
        xty.extend_from_slice(&self.zty[1..]);
        let factor = SpdFactor::new(&gram)?;
        let beta = factor.solve(&xty);
        if !beta.iter().all(|b| b.is_finite()) {
            return Err(CausalError::Estimation(
                "non-finite regression coefficients".into(),
            ));
        }

        // Fitted values in column order: intercept, T, then each block
        // (a one-hot row adds its level's coefficient; the reference
        // level adds +0, which changes nothing).
        let mut fitted = vec![0.0f64 + beta[0]; n];
        for &r in &t_rows {
            fitted[r] += beta[1];
        }
        for b in &self.blocks {
            match b {
                DenseBlock::OneHot {
                    col,
                    levels,
                    of_row,
                } => {
                    let coef: Vec<f64> = (0..*levels)
                        .map(|l| if l == 0 { 0.0 } else { beta[col + l] })
                        .collect();
                    for (f, &l) in fitted.iter_mut().zip(of_row) {
                        *f += coef[l as usize];
                    }
                }
                DenseBlock::Numeric { col, values } => {
                    for (f, v) in fitted.iter_mut().zip(values) {
                        *f += v * beta[col + 1];
                    }
                }
            }
        }
        let rss = self
            .y
            .iter()
            .zip(&fitted)
            .fold(0.0, |acc, (yi, fi)| acc + (yi - fi) * (yi - fi));

        let dof = (n - k) as f64;
        let sigma2 = rss / dof;
        let mut e1 = vec![0.0; k];
        e1[1] = 1.0;
        let var_t = sigma2 * factor.solve(&e1)[1];
        let cate = beta[1];
        if var_t <= 0.0 || !var_t.is_finite() {
            return Err(CausalError::Estimation(
                "degenerate variance for treatment coefficient".into(),
            ));
        }
        let std_err = var_t.sqrt();
        let t_stat = cate / std_err;
        Ok(Estimate {
            cate,
            std_err,
            t_stat,
            p_value: t_sf_two_sided(t_stat, dof),
            n_treated,
            n_control,
        })
    }
}

/// The gram entries between two covariate blocks `a` (earlier) and `b`
/// over `n` group rows, handed to `set(i, j, value)`.
fn cross_terms(a: &DenseBlock, b: &DenseBlock, n: usize, set: &mut impl FnMut(usize, usize, f64)) {
    use DenseBlock::{Numeric, OneHot};
    let (ca, cb) = (a.col(), b.col());
    match (a, b) {
        (
            OneHot {
                levels: la,
                of_row: ra,
                ..
            },
            OneHot {
                levels: lb,
                of_row: rb,
                ..
            },
        ) => {
            let mut counts = vec![0.0f64; la * lb];
            for (&x, &z) in ra.iter().zip(rb) {
                counts[x as usize * lb + z as usize] += 1.0;
            }
            for i in 1..*la {
                for j in 1..*lb {
                    set(ca + i - 1, cb + j - 1, counts[i * lb + j]);
                }
            }
        }
        (OneHot { .. }, Numeric { values, .. }) => {
            for (i, v) in a.column_sums(0..n, |r| values[r]).into_iter().enumerate() {
                set(ca + i, cb, v);
            }
        }
        (Numeric { values, .. }, OneHot { .. }) => {
            for (j, v) in b.column_sums(0..n, |r| values[r]).into_iter().enumerate() {
                set(ca, cb + j, v);
            }
        }
        (Numeric { values: va, .. }, Numeric { values: vb, .. }) => {
            set(
                ca,
                cb,
                va.iter().zip(vb).fold(0.0, |acc, (x, z)| acc + x * z),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faircap_table::DataFrame;

    /// Confounded data where the truth is known exactly:
    /// z ∈ {0,1}; T more likely when z=1; O = 10·T + 50·z (no noise).
    /// Naive difference-in-means is biased upward; adjustment recovers 10.
    fn confounded_frame() -> (DataFrame, Mask) {
        let mut z = Vec::new();
        let mut t = Vec::new();
        let mut o = Vec::new();
        // z=0: 40 rows, 10 treated; z=1: 40 rows, 30 treated.
        for i in 0..40 {
            z.push("low");
            let ti = i < 10;
            t.push(ti);
            o.push(if ti { 10.0 } else { 0.0 });
        }
        for i in 0..40 {
            z.push("high");
            let ti = i < 30;
            t.push(ti);
            o.push(50.0 + if ti { 10.0 } else { 0.0 });
        }
        let treated = Mask::from_bools(&t);
        let df = DataFrame::builder()
            .cat("z", &z)
            .bool("t", t)
            .float("o", o)
            .build()
            .unwrap();
        (df, treated)
    }

    #[test]
    fn recovers_true_effect_under_confounding() {
        let (df, treated) = confounded_frame();
        let all = Mask::ones(df.n_rows());
        let est = estimate(&df, &all, &treated, "o", &["z".into()]).unwrap();
        assert!((est.cate - 10.0).abs() < 1e-8, "cate = {}", est.cate);
        assert!(est.p_value < 1e-6);
        assert_eq!(est.n_treated, 40);
        assert_eq!(est.n_control, 40);
    }

    #[test]
    fn naive_estimate_is_biased() {
        let (df, treated) = confounded_frame();
        let all = Mask::ones(df.n_rows());
        // No adjustment: E[O|T=1] = (10·10 + 30·60)/40 = 47.5,
        // E[O|T=0] = (30·0 + 10·50)/40 = 12.5 → naive effect 35.
        let est = estimate(&df, &all, &treated, "o", &[]).unwrap();
        assert!((est.cate - 35.0).abs() < 1e-8, "naive = {}", est.cate);
    }

    #[test]
    fn numeric_covariate_adjustment() {
        // O = 5·T + 2·age, T correlated with age.
        let n = 200;
        let mut age = Vec::new();
        let mut t = Vec::new();
        let mut o = Vec::new();
        for i in 0..n {
            let a = 20 + (i % 40) as i64;
            let ti = a >= 40;
            age.push(a);
            t.push(ti);
            o.push(5.0 * ti as i64 as f64 + 2.0 * a as f64);
        }
        let treated = Mask::from_bools(&t);
        let df = DataFrame::builder()
            .int("age", age)
            .float("o", o)
            .build()
            .unwrap();
        let all = Mask::ones(n);
        let est = estimate(&df, &all, &treated, "o", &["age".into()]).unwrap();
        assert!((est.cate - 5.0).abs() < 1e-8, "cate = {}", est.cate);
    }

    #[test]
    fn subgroup_estimation_restricts_rows() {
        let (df, treated) = confounded_frame();
        // Only the z=low stratum: effect is exactly 10 with no confounding.
        let low = faircap_table::Pattern::of_eq(&[("z", "low".into())])
            .coverage(&df)
            .unwrap();
        let est = estimate(&df, &low, &treated, "o", &[]).unwrap();
        assert!((est.cate - 10.0).abs() < 1e-8);
        assert_eq!(est.n_treated + est.n_control, 40);
    }

    #[test]
    fn insufficient_overlap_rejected() {
        let df = DataFrame::builder()
            .float("o", vec![1.0; 20])
            .build()
            .unwrap();
        let all = Mask::ones(20);
        let treated = Mask::from_indices(20, &[0, 1]); // 2 treated < MIN_ARM_SIZE
        assert!(estimate(&df, &all, &treated, "o", &[]).is_err());
        let all_treated = Mask::ones(20);
        assert!(estimate(&df, &all, &all_treated, "o", &[]).is_err());
    }

    #[test]
    fn categorical_outcome_rejected() {
        let df = DataFrame::builder()
            .cat("o", &["a"; 20])
            .bool("t", vec![true; 20])
            .build()
            .unwrap();
        let all = Mask::ones(20);
        let treated = Mask::from_indices(20, &(0..10).collect::<Vec<_>>());
        assert!(estimate(&df, &all, &treated, "o", &[]).is_err());
    }

    #[test]
    fn noisy_effect_significant_and_null_not() {
        // Deterministic pseudo-noise (no rand dependency needed here).
        let n = 400;
        let mut t = Vec::new();
        let mut o_effect = Vec::new();
        let mut o_null = Vec::new();
        let mut state = 0x12345678u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state as f64 / u64::MAX as f64) - 0.5
        };
        for i in 0..n {
            let ti = i % 2 == 0;
            t.push(ti);
            let noise = rng() * 4.0;
            o_effect.push(if ti { 8.0 } else { 0.0 } + noise);
            o_null.push(noise);
        }
        let treated = Mask::from_bools(&t);
        let all = Mask::ones(n);
        let df = DataFrame::builder()
            .float("oe", o_effect)
            .float("on", o_null)
            .build()
            .unwrap();
        let sig = estimate(&df, &all, &treated, "oe", &[]).unwrap();
        assert!(sig.is_significant(0.01), "p = {}", sig.p_value);
        let null = estimate(&df, &all, &treated, "on", &[]).unwrap();
        assert!(!null.is_significant(0.01), "p = {}", null.p_value);
    }
}
