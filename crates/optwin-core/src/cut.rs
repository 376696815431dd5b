//! Optimal-cut computation (Equation 1 of the paper) and the pre-computed
//! per-window-length lookup table.
//!
//! For a window of length `|W|`, a candidate split ν partitions it into
//! `W_hist` (the first `⌊ν|W|⌋` elements) and `W_new` (the rest). Equation 1
//! expresses, for that split, the smallest mean shift (measured in units of
//! `σ_hist`) that the Welch *t*-test is guaranteed to flag at confidence δ':
//!
//! ```text
//! ρ(ν) = t_ppf(δ', df) · sqrt( 1/(ν|W|) + f_ppf(δ', df_new, df_hist) / ((1−ν)|W|) )
//! ```
//!
//! The function ρ(ν) is U-shaped: it blows up when either sub-window becomes
//! tiny. OPTWIN therefore uses the **highest** ν at which ρ(ν) is still at
//! most the user-chosen robustness ρ — the smallest `W_new` that still
//! guarantees detection — and falls back to ν = 0.5 while the window is too
//! short for any split to satisfy the requirement (`|W| < w_proof`).
//!
//! Because ρ(ν) depends only on `|W|`, δ and ρ (never on the data), the split
//! point and both critical values are pre-computed per window length, exactly
//! as described in §3.4 of the paper. [`CutTable`] computes entries lazily,
//! warm-starting each search from the neighbouring window length, so an
//! entry usually costs three quantile pairs: two Equation 1 evaluations to
//! pin the largest admissible split, whose critical values the entry then
//! reuses, and one at the warning confidence. A range of missing entries is
//! cut into contiguous parts, one per core, that are filled on scoped
//! threads and published under one write lock. Every entry is the same
//! whichever part computes it: the hint only decides where the split search
//! starts, not the split it returns.
//!
//! ## A note on the F-test degrees of freedom
//!
//! Algorithm 1 (line 11) writes `f_ppf(δ', ν|W|−1, (1−ν)|W|−1)` while the
//! accompanying text of the proof says the numerator degrees of freedom come
//! from `W_new` and the denominator from `W_hist`. Since the tested statistic
//! is `σ²_new / σ²_hist`, the statistically correct parametrisation is
//! `(|W_new|−1, |W_hist|−1)`, which is what this implementation uses — both
//! for the runtime test and inside Equation 1.

use std::sync::{Arc, OnceLock};

use parking_lot::RwLock;

use optwin_stats::dist::{ContinuousDistribution, FisherF, StudentsT};

use crate::{CoreError, OptwinConfig, Result};

/// Pre-computed quantities for one window length `|W|`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CutEntry {
    /// Window length this entry was computed for.
    pub window_len: usize,
    /// Number of elements in `W_hist` (`⌊ν|W|⌋`).
    pub split: usize,
    /// The optimal splitting percentage ν = split / |W|.
    pub nu: f64,
    /// `true` when Equation 1 had a solution for this window length (i.e.
    /// `|W| ≥ w_proof`); `false` when the ν = 0.5 fallback was used.
    pub exact: bool,
    /// Critical value of the Welch t-test at confidence δ'.
    pub t_crit: f64,
    /// Critical value of the f-test at confidence δ'
    /// (degrees of freedom `|W_new|−1`, `|W_hist|−1`).
    pub f_crit: f64,
    /// Welch–Satterthwaite degrees of freedom used for `t_crit`
    /// (Equation 2 of the paper).
    pub df: f64,
    /// Critical value of the t-test at the warning confidence, if enabled.
    pub t_warn: Option<f64>,
    /// Critical value of the f-test at the warning confidence, if enabled.
    pub f_warn: Option<f64>,
}

/// Equation 1 at one split: `(ρ, df, t_crit, f_crit)`.
type Equation1 = (f64, f64, f64, f64);

/// The value of Equation 1's right-hand side for a concrete integer split.
///
/// `w` is the window length and `k` the number of elements in `W_hist`.
/// Returns the guaranteed-detectable shift (in units of `σ_hist`) together
/// with the Welch degrees of freedom and the two critical values, so callers
/// can reuse them without re-evaluating the quantile functions.
fn equation_one(w: usize, k: usize, delta_prime: f64) -> Result<Equation1> {
    debug_assert!(k >= 2 && w - k >= 2, "both sub-windows need >= 2 elements");
    let n_hist = k as f64;
    let n_new = (w - k) as f64;

    // f_factor = f_ppf(δ', |W_new|−1, |W_hist|−1)  (Equation 8).
    let f_dist = FisherF::new(n_new - 1.0, n_hist - 1.0)?;
    let f_factor = f_dist.ppf(delta_prime)?;

    // Welch–Satterthwaite degrees of freedom with σ²_new bounded by
    // f_factor·σ²_hist (Equation 2).
    let a = 1.0 / n_hist;
    let b = f_factor / n_new;
    let df = ((a + b) * (a + b)) / (a * a / (n_hist - 1.0) + b * b / (n_new - 1.0));
    let df = df.max(1.0);

    let t_dist = StudentsT::new(df)?;
    let t_crit = t_dist.ppf(delta_prime)?;

    let rho = t_crit * (a + b).sqrt();
    Ok((rho, df, t_crit, f_factor))
}

/// Smallest admissible `W_hist` size (both tests need at least two elements
/// per sub-window to have defined variances).
const MIN_SUB_WINDOW: usize = 2;

/// Fewest missing entries worth a part of their own in a parallel fill: a
/// part costs one thread spawn plus a split search that starts further from
/// its answer, against ~100 µs of quantile work per entry.
const MIN_ENTRIES_PER_PART: usize = 32;

/// Marks a slot the cache does not hold yet (no real entry has
/// `window_len == 0`; lengths start at `w_min >= 1`).
const MISSING: CutEntry = CutEntry {
    window_len: 0,
    split: 0,
    nu: 0.0,
    exact: false,
    t_crit: f64::INFINITY,
    f_crit: f64::INFINITY,
    df: 1.0,
    t_warn: None,
    f_warn: None,
};

/// Cores available to a table fill, read once per process.
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Computes the optimal cut for window length `w`: the largest split `k` such
/// that Equation 1's guaranteed-detectable shift is at most `rho`.
///
/// `hint` optionally provides a guess near the answer (e.g. extrapolated
/// from a nearby window length); the search then only probes a local
/// neighbourhood before falling back to a full scan, which makes sequential
/// table construction cheap.
///
/// Returns the split with Equation 1 evaluated at it, or `None` when no
/// split satisfies the requirement and the ν = 0.5 fallback applies.
fn optimal_split(
    w: usize,
    rho: f64,
    delta_prime: f64,
    hint: Option<usize>,
) -> Result<Option<(usize, Equation1)>> {
    let k_min = MIN_SUB_WINDOW;
    let k_max = w - MIN_SUB_WINDOW;
    if k_min > k_max {
        return Ok(None);
    }

    let admissible = |k: usize| -> Result<Option<Equation1>> {
        let eq = equation_one(w, k, delta_prime)?;
        Ok((eq.0 <= rho).then_some(eq))
    };

    // Fast path: walk locally from the hint. The admissible region
    // {k : ρ(k) ≤ rho} is an interval because ρ(k) is U-shaped, so the
    // largest admissible k is characterised by ρ(k) ≤ rho < ρ(k+1).
    if let Some(h) = hint {
        let mut k = h.clamp(k_min, k_max);
        if let Some(mut best) = admissible(k)? {
            while k < k_max {
                let Some(eq) = admissible(k + 1)? else { break };
                k += 1;
                best = eq;
            }
            return Ok(Some((k, best)));
        }
        // The hint overshoots; walk down a bounded number of steps before
        // giving up and scanning.
        let mut down = k;
        for _ in 0..8 {
            if down == k_min {
                break;
            }
            down -= 1;
            if let Some(eq) = admissible(down)? {
                return Ok(Some((down, eq)));
            }
        }
    }

    // Full search: find the largest admissible k by scanning from the top.
    // ρ(k) is decreasing-then-increasing in k; scanning from k_max downwards
    // and returning the first admissible k therefore yields the maximum.
    // To avoid O(w) quantile evaluations for large windows we first probe a
    // geometric grid to find a coarse bracket, then binary-search inside it.
    let mut probe = k_max;
    let mut last_bad = k_max + 1;
    let mut found = None;
    let mut step = 1usize;
    loop {
        if let Some(eq) = admissible(probe)? {
            found = Some((probe, eq));
            break;
        }
        last_bad = probe;
        if probe <= k_min {
            break;
        }
        probe = probe.saturating_sub(step).max(k_min);
        // Geometric acceleration, capped so that a narrow admissible interval
        // (which occurs just above w_proof) is rarely stepped over.
        step = (step * 2).min(32);
    }

    // When the grid did step over the interval, the U's minimum lies in it.
    let (mut lo, mut best, mut hi) = match found {
        Some((k, eq)) => (k, eq, last_bad),
        None => match admissible_near_minimum(w, rho, delta_prime)? {
            Some((k, eq)) => (k, eq, k_max + 1),
            // No admissible split at all: |W| < w_proof, fall back to ν = 0.5.
            None => return Ok(None),
        },
    };

    // Binary search for the boundary in (lo, hi); hi is known to violate
    // (or is k_max + 1).
    while lo + 1 < hi {
        let mid = lo + (hi - lo) / 2;
        if mid > k_max {
            break;
        }
        match admissible(mid)? {
            Some(eq) => {
                lo = mid;
                best = eq;
            }
            None => hi = mid,
        }
    }
    Ok(Some((lo, best)))
}

/// Some admissible split for window length `w`, found by a ternary search
/// towards the minimum of the U-shaped ρ(k), or `None` when even the
/// minimum exceeds `rho`.
fn admissible_near_minimum(
    w: usize,
    rho: f64,
    delta_prime: f64,
) -> Result<Option<(usize, Equation1)>> {
    let k_min = MIN_SUB_WINDOW;
    let k_max = w.saturating_sub(MIN_SUB_WINDOW);
    if k_min >= k_max {
        return Ok(None);
    }
    let mut lo = k_min;
    let mut hi = k_max;
    while hi - lo > 2 {
        let m1 = lo + (hi - lo) / 3;
        let m2 = hi - (hi - lo) / 3;
        let eq1 = equation_one(w, m1, delta_prime)?;
        let eq2 = equation_one(w, m2, delta_prime)?;
        if eq2.0 <= rho {
            return Ok(Some((m2, eq2)));
        }
        if eq1.0 <= rho {
            return Ok(Some((m1, eq1)));
        }
        if eq1.0 < eq2.0 {
            hi = m2;
        } else {
            lo = m1;
        }
    }
    for k in lo..=hi {
        let eq = equation_one(w, k, delta_prime)?;
        if eq.0 <= rho {
            return Ok(Some((k, eq)));
        }
    }
    Ok(None)
}

/// Lazily built, thread-safe lookup table of [`CutEntry`] values for every
/// window length in `[w_min, w_max]`.
///
/// The table is keyed by the OPTWIN configuration it was built from and can
/// be shared between detector instances with [`Arc`] (e.g. when running the
/// 30-repetition experiments of the paper, all repetitions reuse one table).
#[derive(Debug)]
pub struct CutTable {
    delta_prime: f64,
    warning_delta_prime: Option<f64>,
    rho: f64,
    w_min: usize,
    w_max: usize,
    cache: RwLock<Vec<Option<CutEntry>>>,
    /// Lazily computed proof window `w_proof`: the smallest window length at
    /// which Equation 1 has a solution (`None` when even `w_max` has none).
    /// Admissibility is monotone in `|W|` (larger windows can only make a
    /// ρ-shift easier to certify), so lengths below `w_proof` take the
    /// ν = 0.5 fallback without running the split search at all.
    proof_window: RwLock<Option<Option<usize>>>,
}

impl CutTable {
    /// Creates an empty table for the given configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if the configuration is invalid.
    pub fn new(config: &OptwinConfig) -> Result<Self> {
        config.validate()?;
        Ok(Self {
            delta_prime: config.delta_prime(),
            warning_delta_prime: config.warning_delta_prime(),
            rho: config.rho,
            w_min: config.w_min,
            w_max: config.w_max,
            cache: RwLock::new(vec![None; config.w_max - config.w_min + 1]),
            proof_window: RwLock::new(None),
        })
    }

    /// Creates the table and wraps it in an [`Arc`] for sharing.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if the configuration is invalid.
    pub fn shared(config: &OptwinConfig) -> Result<Arc<Self>> {
        Ok(Arc::new(Self::new(config)?))
    }

    /// Smallest window length covered by the table.
    #[must_use]
    pub fn w_min(&self) -> usize {
        self.w_min
    }

    /// Largest window length covered by the table.
    #[must_use]
    pub fn w_max(&self) -> usize {
        self.w_max
    }

    /// The robustness parameter ρ the table was built for.
    #[must_use]
    pub fn rho(&self) -> f64 {
        self.rho
    }

    /// Returns the entry for window length `w`, computing and caching it (and
    /// nothing else) on first use.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if `w` is outside
    /// `[w_min, w_max]`, or a wrapped statistics error if a quantile
    /// evaluation fails (practically unreachable for valid configurations).
    pub fn entry(&self, w: usize) -> Result<CutEntry> {
        if w < self.w_min || w > self.w_max {
            return Err(CoreError::InvalidConfig {
                field: "window_len",
                message: format!(
                    "length {w} outside the table range [{}, {}]",
                    self.w_min, self.w_max
                ),
            });
        }
        if let Some(entry) = self.cache.read()[w - self.w_min] {
            return Ok(entry);
        }
        let mut slot = [MISSING];
        self.fill(w, &mut slot)?;
        Ok(slot[0])
    }

    /// Returns the entries for every window length in `[lo, hi]` (both
    /// inclusive), computing and caching any that are missing.
    ///
    /// This is the batch-ingestion fast path: one read-lock acquisition
    /// covers the whole contiguous range instead of one per element, and
    /// missing entries are computed with warm-started split searches (in
    /// parallel parts when there are enough of them) before a single write
    /// lock stores them all.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if the range is empty or falls
    /// outside `[w_min, w_max]`, or a wrapped statistics error from entry
    /// computation (practically unreachable).
    pub fn entries_range(&self, lo: usize, hi: usize) -> Result<Vec<CutEntry>> {
        let mut out = Vec::new();
        self.entries_range_into(lo, hi, &mut out)?;
        Ok(out)
    }

    /// [`CutTable::entries_range`] writing into a caller-owned buffer, which
    /// is cleared and then filled with the entries for `[lo, hi]`.
    ///
    /// This is the allocation-free variant the detector batch path uses: one
    /// scratch `Vec` per detector absorbs every prefetch chunk instead of a
    /// fresh allocation per chunk.
    ///
    /// # Errors
    ///
    /// Same contract as [`CutTable::entries_range`]; on error the buffer
    /// contents are unspecified (but valid).
    pub fn entries_range_into(&self, lo: usize, hi: usize, out: &mut Vec<CutEntry>) -> Result<()> {
        if lo > hi || lo < self.w_min || hi > self.w_max {
            return Err(CoreError::InvalidConfig {
                field: "window_len",
                message: format!(
                    "range [{lo}, {hi}] invalid for the table range [{}, {}]",
                    self.w_min, self.w_max
                ),
            });
        }
        out.clear();
        out.extend(
            self.cache.read()[lo - self.w_min..=hi - self.w_min]
                .iter()
                .map(|slot| slot.unwrap_or(MISSING)),
        );
        self.fill(lo, out)
    }

    /// Eagerly computes every entry in `[w_min, w_max]`.
    ///
    /// # Errors
    ///
    /// Propagates the first computation error encountered.
    pub fn precompute_all(&self) -> Result<()> {
        self.entries_range(self.w_min, self.w_max).map(drop)
    }

    /// Number of entries currently cached (diagnostics).
    #[must_use]
    pub fn cached_entries(&self) -> usize {
        self.cache.read().iter().filter(|e| e.is_some()).count()
    }

    /// Whether Equation 1 has any admissible split for window length `w`
    /// (evaluated at the U-shaped function's minimum via ternary search).
    fn solution_exists(&self, w: usize) -> Result<bool> {
        Ok(admissible_near_minimum(w, self.rho, self.delta_prime)?.is_some())
    }

    /// Lazily computes the proof window (smallest `w` with a solution) by
    /// bisection over `[w_min, w_max]`.
    fn proof_window(&self) -> Result<Option<usize>> {
        if let Some(cached) = *self.proof_window.read() {
            return Ok(cached);
        }
        let result = if !self.solution_exists(self.w_max)? {
            None
        } else if self.solution_exists(self.w_min)? {
            Some(self.w_min)
        } else {
            let mut lo = self.w_min; // no solution
            let mut hi = self.w_max; // solution
            while hi - lo > 1 {
                let mid = lo + (hi - lo) / 2;
                if self.solution_exists(mid)? {
                    hi = mid;
                } else {
                    lo = mid;
                }
            }
            Some(hi)
        };
        *self.proof_window.write() = Some(result);
        Ok(result)
    }

    /// Computes the [`MISSING`] slots of `slots`, the entries for window
    /// lengths `lo..lo + slots.len()`, and publishes them to the cache.
    ///
    /// This is the one fill routine behind [`CutTable::entry`],
    /// [`CutTable::entries_range_into`] and [`CutTable::precompute_all`].
    fn fill(&self, lo: usize, slots: &mut [CutEntry]) -> Result<()> {
        let missing = slots.iter().filter(|e| e.window_len == 0).count();
        if missing == 0 {
            return Ok(());
        }
        let parts = (missing / MIN_ENTRIES_PER_PART).clamp(1, cores());
        self.fill_in_parts(lo, slots, parts)
    }

    /// [`CutTable::fill`] cut into at most `parts` contiguous parts, the
    /// first filled on the calling thread and the others on scoped threads.
    fn fill_in_parts(&self, lo: usize, slots: &mut [CutEntry], parts: usize) -> Result<()> {
        // Resolved before any helper thread exists, so the parts share it
        // instead of racing to compute it.
        let w_proof = self.proof_window()?;
        // Every part's split search starts from the nearest cached entry
        // below the range, if one is close.
        let seed = self.cache.read()[..lo - self.w_min]
            .iter()
            .rev()
            .take(16)
            .flatten()
            .next()
            .copied();
        let fill_part = |start: usize, part: &mut [CutEntry]| -> Result<()> {
            let mut prev = seed;
            for (offset, slot) in part.iter_mut().enumerate() {
                if slot.window_len == 0 {
                    let w = start + offset;
                    let hint = prev.map(|e| e.split + (w - e.window_len));
                    *slot = self.compute_entry(w, hint, w_proof)?;
                }
                prev = Some(*slot);
            }
            Ok(())
        };

        let part_len = slots.len().div_ceil(parts.max(1));
        std::thread::scope(|scope| {
            let mut chunks = slots.chunks_mut(part_len).enumerate();
            let (_, first) = chunks.next().expect("a fill covers at least one slot");
            let helpers: Vec<_> = chunks
                .map(|(i, part)| scope.spawn(move || fill_part(lo + i * part_len, part)))
                .collect();
            let mut result = fill_part(lo, first);
            for helper in helpers {
                let joined = helper.join().expect("cut-table fill thread panicked");
                result = result.and(joined);
            }
            result
        })?;

        let mut cache = self.cache.write();
        let start = lo - self.w_min;
        for (slot, entry) in cache[start..start + slots.len()]
            .iter_mut()
            .zip(slots.iter())
        {
            *slot = Some(*entry);
        }
        Ok(())
    }

    /// The entry for window length `w`, searching from `hint`, given the
    /// table's resolved proof window.
    fn compute_entry(
        &self,
        w: usize,
        hint: Option<usize>,
        w_proof: Option<usize>,
    ) -> Result<CutEntry> {
        let exact_split = match w_proof {
            Some(w_proof) if w >= w_proof => optimal_split(w, self.rho, self.delta_prime, hint)?,
            _ => None,
        };
        let (split, exact, (_, df, t_crit, f_crit)) = match exact_split {
            Some((split, eq)) => (split, true, eq),
            None => {
                // No admissible split (below the proof window): ν = 0.5.
                let split = (w / 2).clamp(
                    MIN_SUB_WINDOW,
                    w.saturating_sub(MIN_SUB_WINDOW).max(MIN_SUB_WINDOW),
                );
                (split, false, equation_one(w, split, self.delta_prime)?)
            }
        };
        let (t_warn, f_warn) = match self.warning_delta_prime {
            Some(dw) => {
                let (_, _, t_w, f_w) = equation_one(w, split, dw)?;
                (Some(t_w), Some(f_w))
            }
            None => (None, None),
        };
        Ok(CutEntry {
            window_len: w,
            split,
            nu: split as f64 / w as f64,
            exact,
            t_crit,
            f_crit,
            df,
            t_warn,
            f_warn,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OptwinConfig;

    fn config(rho: f64, w_max: usize) -> OptwinConfig {
        OptwinConfig::builder()
            .robustness(rho)
            .max_window(w_max)
            .build()
            .unwrap()
    }

    #[test]
    fn equation_one_is_u_shaped() {
        let w = 400;
        let dp = 0.99_f64.powf(0.25);
        let mut values = Vec::new();
        for k in (2..=w - 2).step_by(7) {
            let (r, _, _, _) = equation_one(w, k, dp).unwrap();
            values.push(r);
        }
        // Endpoints are larger than the interior minimum.
        let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(values[0] > min);
        assert!(values[values.len() - 1] > min);
        assert!(min > 0.0);
    }

    #[test]
    fn small_windows_fall_back_to_half() {
        // With ρ = 0.1 a window of 200 elements is far below w_proof, so the
        // fallback ν = 0.5 must be used.
        let table = CutTable::new(&config(0.1, 500)).unwrap();
        let entry = table.entry(200).unwrap();
        assert!(!entry.exact);
        assert_eq!(entry.split, 100);
        assert!((entry.nu - 0.5).abs() < 1e-12);
    }

    #[test]
    fn large_windows_get_exact_cut_for_loose_rho() {
        // With ρ = 1.0 a few dozen elements suffice (w_proof ≈ 36).
        let table = CutTable::new(&config(1.0, 400)).unwrap();
        let entry = table.entry(300).unwrap();
        assert!(entry.exact);
        // The optimal cut keeps W_new small: the split lies past the middle.
        assert!(entry.split > 150, "split = {}", entry.split);
        assert!(entry.split <= 298);
        // The guaranteed shift at the returned split must not exceed ρ.
        let dp = 0.99_f64.powf(0.25);
        let (r, _, _, _) = equation_one(300, entry.split, dp).unwrap();
        assert!(r <= 1.0 + 1e-9);
        // And the next split (one further right) must violate it, otherwise
        // the returned split would not be maximal.
        let (r_next, _, _, _) = equation_one(300, entry.split + 1, dp).unwrap();
        assert!(r_next > 1.0);
    }

    #[test]
    fn split_is_maximal_for_various_lengths() {
        let table = CutTable::new(&config(0.5, 1200)).unwrap();
        let dp = 0.99_f64.powf(0.25);
        for &w in &[150, 300, 600, 1200] {
            let entry = table.entry(w).unwrap();
            if entry.exact {
                let (r, _, _, _) = equation_one(w, entry.split, dp).unwrap();
                assert!(r <= 0.5 + 1e-9, "w={w}");
                if entry.split + MIN_SUB_WINDOW < w {
                    let (r_next, _, _, _) = equation_one(w, entry.split + 1, dp).unwrap();
                    assert!(r_next > 0.5, "w={w}: split not maximal");
                }
            }
        }
    }

    #[test]
    fn hint_and_full_scan_agree() {
        let dp = 0.99_f64.powf(0.25);
        // Compute without a hint, then with deliberately wrong hints.
        for &w in &[200usize, 350, 500] {
            let reference = optimal_split(w, 0.5, dp, None).unwrap();
            if let Some((k, eq)) = reference {
                assert_eq!(eq, equation_one(w, k, dp).unwrap(), "w={w}");
            }
            let k_ref = reference.map_or(w / 2, |(k, _)| k);
            for hint in [Some(2), Some(w / 2), Some(w - 3), Some(k_ref)] {
                let found = optimal_split(w, 0.5, dp, hint).unwrap();
                assert_eq!(found, reference, "w={w} hint={hint:?}");
            }
        }
    }

    #[test]
    fn hint_free_search_finds_a_narrow_interval() {
        // At ρ = 1.0 and |W| = 64 only splits 26..=28 are admissible; the
        // geometric grid (62, 61, 59, 55, 47, 31, 2) steps over them.
        let dp = 0.99_f64.powf(0.25);
        let admissible: Vec<usize> = (2..=62)
            .filter(|&k| equation_one(64, k, dp).unwrap().0 <= 1.0)
            .collect();
        assert_eq!(admissible, [26, 27, 28]);
        let (k, eq) = optimal_split(64, 1.0, dp, None).unwrap().unwrap();
        assert_eq!((k, eq), (28, equation_one(64, 28, dp).unwrap()));
        // A cold lookup agrees with the sequentially built table.
        let cold = CutTable::new(&config(1.0, 100)).unwrap().entry(64).unwrap();
        let built = CutTable::new(&config(1.0, 100)).unwrap();
        built.precompute_all().unwrap();
        assert_eq!(cold, built.entry(64).unwrap());
        assert!(cold.exact && cold.split == 28);
    }

    #[test]
    fn fill_is_independent_of_the_part_count() {
        // Each part starts its split search from its own hint, so the part
        // count a host's core count picks must not show in the entries.
        for rho in [0.25, 0.5, 1.0] {
            let config = config(rho, 700);
            let n = config.w_max - config.w_min + 1;
            let fill = |parts: usize| {
                let table = CutTable::new(&config).unwrap();
                let mut slots = vec![MISSING; n];
                table
                    .fill_in_parts(config.w_min, &mut slots, parts)
                    .unwrap();
                assert_eq!(table.cached_entries(), n);
                slots
            };
            let reference = fill(1);
            for parts in [2, 3, 4, 7, 16] {
                assert_eq!(fill(parts), reference, "rho={rho} parts={parts}");
            }
        }
    }

    #[test]
    fn new_window_size_shrinks_relative_to_w_as_w_grows() {
        // §3.3: with larger windows the optimal |W_new| stays roughly stable,
        // so ν grows towards 1.
        let table = CutTable::new(&config(1.0, 2000)).unwrap();
        let e_small = table.entry(200).unwrap();
        let e_large = table.entry(2000).unwrap();
        assert!(e_small.exact && e_large.exact);
        assert!(e_large.nu > e_small.nu);
        let new_small = 200 - e_small.split;
        let new_large = 2000 - e_large.split;
        // |W_new| grows far more slowly than |W| itself.
        assert!(
            new_large < new_small * 4,
            "new_small={new_small} new_large={new_large}"
        );
    }

    #[test]
    fn entries_are_cached_and_shared() {
        let table = CutTable::shared(&config(0.5, 100)).unwrap();
        assert_eq!(table.cached_entries(), 0);
        let a = table.entry(60).unwrap();
        let b = table.entry(60).unwrap();
        assert_eq!(a, b);
        assert_eq!(table.cached_entries(), 1);

        let clone = Arc::clone(&table);
        let handle = std::thread::spawn(move || clone.entry(80).unwrap());
        let from_thread = handle.join().unwrap();
        assert_eq!(from_thread, table.entry(80).unwrap());
    }

    #[test]
    fn precompute_all_fills_every_entry() {
        let table = CutTable::new(&config(0.5, 120)).unwrap();
        table.precompute_all().unwrap();
        assert_eq!(table.cached_entries(), 120 - 30 + 1);
        for w in 30..=120 {
            let e = table.entry(w).unwrap();
            assert_eq!(e.window_len, w);
            assert!(e.split >= MIN_SUB_WINDOW);
            assert!(e.split <= w - MIN_SUB_WINDOW);
            assert!(e.t_crit > 0.0);
            assert!(e.f_crit > 1.0);
            assert!(e.df >= 1.0);
            // Warning thresholds are strictly looser than drift thresholds.
            assert!(e.t_warn.unwrap() < e.t_crit);
            assert!(e.f_warn.unwrap() < e.f_crit);
        }
    }

    #[test]
    fn entries_range_matches_single_lookups() {
        let table = CutTable::new(&config(0.5, 200)).unwrap();
        // Prime a few entries so the range mixes cached and missing ones.
        let _ = table.entry(50).unwrap();
        let _ = table.entry(60).unwrap();
        let range = table.entries_range(40, 80).unwrap();
        assert_eq!(range.len(), 41);
        for (offset, entry) in range.iter().enumerate() {
            assert_eq!(*entry, table.entry(40 + offset).unwrap());
        }
        // Everything touched is now cached.
        assert!(table.cached_entries() >= 41);
    }

    #[test]
    fn entries_range_into_reuses_buffer_and_matches() {
        let table = CutTable::new(&config(0.5, 200)).unwrap();
        let _ = table.entry(55).unwrap();
        let mut buf = Vec::new();
        table.entries_range_into(40, 80, &mut buf).unwrap();
        assert_eq!(buf.len(), 41);
        for (offset, entry) in buf.iter().enumerate() {
            assert_eq!(*entry, table.entry(40 + offset).unwrap());
        }
        // Refill with a fully cached range: the buffer is reused, no stale
        // leftovers, same entries as the allocating variant.
        let cap_before = buf.capacity();
        table.entries_range_into(60, 70, &mut buf).unwrap();
        assert_eq!(buf.len(), 11);
        assert_eq!(buf.capacity(), cap_before);
        assert_eq!(buf, table.entries_range(60, 70).unwrap());
        // Errors leave the buffer valid.
        assert!(table.entries_range_into(10, 20, &mut buf).is_err());
    }

    #[test]
    fn entries_range_rejects_bad_ranges() {
        let table = CutTable::new(&config(0.5, 100)).unwrap();
        assert!(table.entries_range(29, 40).is_err());
        assert!(table.entries_range(40, 101).is_err());
        assert!(table.entries_range(60, 50).is_err());
        assert!(table.entries_range(30, 100).is_ok());
    }

    #[test]
    fn out_of_range_window_rejected() {
        let table = CutTable::new(&config(0.5, 100)).unwrap();
        assert!(table.entry(29).is_err());
        assert!(table.entry(101).is_err());
        assert!(table.entry(30).is_ok());
        assert!(table.entry(100).is_ok());
    }

    #[test]
    fn accessors() {
        let table = CutTable::new(&config(0.25, 90)).unwrap();
        assert_eq!(table.w_min(), 30);
        assert_eq!(table.w_max(), 90);
        assert!((table.rho() - 0.25).abs() < 1e-15);
    }

    #[test]
    fn smaller_rho_means_larger_proof_window() {
        // The window length at which an exact cut first exists grows as ρ
        // shrinks (Theorem 3.1 / §3.3 discussion).
        let first_exact = |rho: f64| -> usize {
            let table = CutTable::new(&config(rho, 3000)).unwrap();
            for w in (30..=3000).step_by(10) {
                if table.entry(w).unwrap().exact {
                    return w;
                }
            }
            usize::MAX
        };
        let w_proof_rho_1 = first_exact(1.0);
        let w_proof_rho_05 = first_exact(0.5);
        assert!(w_proof_rho_1 < w_proof_rho_05);
        assert!(w_proof_rho_1 <= 100, "w_proof(1.0) = {w_proof_rho_1}");
        assert!(w_proof_rho_05 <= 300, "w_proof(0.5) = {w_proof_rho_05}");
    }
}
