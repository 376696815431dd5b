//! Bit-identity gate for OPTWIN's pre-computed cut tables.
//!
//! Every OPTWIN decision reads its split and critical values from a
//! [`CutTable`], so an entry that moves by one ulp can move a detection.
//! Each case rebuilds one table from scratch and compares an FNV-1a digest
//! over every field of every entry (floats by `to_bits`) against a digest
//! recorded with the original single-threaded build. The configurations are
//! the ones the driftbench line-up, the golden corpora and the engine
//! benchmark use. The two `w_max = 25 000` tables take about a second each
//! in release mode, so they are `#[ignore]`d here and run in CI with
//! `cargo test --release --test cut_table_golden -- --ignored`.
//!
//! A table fills missing entries in parallel parts, so the last tests check
//! that the way a table gets filled never shows in its entries.

use std::sync::{Arc, Barrier};

use optwin::core::{CutEntry, CutTable, OptwinConfig};

/// `(ρ, w_max, digest)` at the paper's defaults otherwise (δ = 0.99,
/// warning δ = 0.95, w_min = 30).
const GOLDEN: &[(f64, usize, u64)] = &[
    (0.5, 64, 0x817f_58d5_5aeb_8647),
    (0.5, 100, 0xd100_fecb_e691_e7cd),
    (0.5, 400, 0x1d74_9d96_cc46_d3d4),
    (0.5, 600, 0x9fb5_1572_0018_8c77),
    (0.5, 1000, 0x1583_af03_d04d_1049),
    (0.5, 2000, 0xe2f0_296f_fdc0_6f05),
    (0.1, 2000, 0x68fc_2bd5_0f78_2c93),
    (1.0, 2000, 0x1bd0_7f0c_3eb2_2522),
];

const GOLDEN_PAPER_SCALE: &[(f64, usize, u64)] = &[
    (0.1, 25_000, 0xa59a_bd4f_a6bc_1805),
    (0.5, 25_000, 0x7731_a53a_62a0_0809),
];

fn config(rho: f64, w_max: usize) -> OptwinConfig {
    OptwinConfig::builder()
        .robustness(rho)
        .max_window(w_max)
        .build()
        .unwrap()
}

/// 64-bit FNV-1a over every field of every entry, in table order.
fn digest(entries: &[CutEntry]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let optional = |v: Option<f64>| {
        v.map_or([0; 9], |v| {
            let mut out = [1; 9];
            out[1..].copy_from_slice(&v.to_bits().to_le_bytes());
            out
        })
    };
    for e in entries {
        eat(&(e.window_len as u64).to_le_bytes());
        eat(&(e.split as u64).to_le_bytes());
        eat(&e.nu.to_bits().to_le_bytes());
        eat(&[u8::from(e.exact)]);
        eat(&e.t_crit.to_bits().to_le_bytes());
        eat(&e.f_crit.to_bits().to_le_bytes());
        eat(&e.df.to_bits().to_le_bytes());
        eat(&optional(e.t_warn));
        eat(&optional(e.f_warn));
    }
    hash
}

/// Rebuilds each table and returns one line per digest mismatch.
fn mismatches(cases: &[(f64, usize, u64)]) -> Vec<String> {
    cases
        .iter()
        .filter_map(|&(rho, w_max, golden)| {
            let config = config(rho, w_max);
            let table = CutTable::new(&config).unwrap();
            table.precompute_all().unwrap();
            let entries = table.entries_range(config.w_min, w_max).unwrap();
            assert_eq!(entries.len(), w_max - config.w_min + 1);
            let got = digest(&entries);
            (got != golden).then(|| {
                format!("rho={rho} w_max={w_max}: digest {got:#018x}, golden {golden:#018x}")
            })
        })
        .collect()
}

#[test]
fn cut_table_golden_lineup_configs() {
    let bad = mismatches(GOLDEN);
    assert!(bad.is_empty(), "cut tables changed:\n{}", bad.join("\n"));
}

#[test]
#[ignore = "paper-scale table; run in release mode"]
fn cut_table_golden_paper_scale() {
    let bad = mismatches(GOLDEN_PAPER_SCALE);
    assert!(bad.is_empty(), "cut tables changed:\n{}", bad.join("\n"));
}

/// Every entry of a fresh table, computed one `entry()` call at a time.
fn one_by_one(config: &OptwinConfig) -> Vec<CutEntry> {
    let table = CutTable::new(config).unwrap();
    (config.w_min..=config.w_max)
        .map(|w| table.entry(w).unwrap())
        .collect()
}

#[test]
fn short_and_long_ranges_match_entry_lookups() {
    let config = config(0.5, 1000);
    let reference = one_by_one(&config);
    let at = |w: usize| &reference[w - config.w_min];

    let table = CutTable::new(&config).unwrap();
    // Too few missing entries to split: filled on the calling thread.
    let short = table.entries_range(500, 509).unwrap();
    // Hundreds missing around cached ones: filled in parts.
    let long = table.entries_range(300, 1000).unwrap();
    for (w, entry) in (500..=509).zip(&short) {
        assert_eq!(entry, at(w), "short range, w={w}");
    }
    for (w, entry) in (300..=1000).zip(&long) {
        assert_eq!(entry, at(w), "long range, w={w}");
    }
    table.precompute_all().unwrap();
    let all = table.entries_range(config.w_min, config.w_max).unwrap();
    assert_eq!(digest(&all), digest(&reference));
}

#[test]
fn overlapping_fills_from_two_threads_agree() {
    let config = config(0.5, 1000);
    let reference = one_by_one(&config);
    let table = Arc::new(CutTable::new(&config).unwrap());
    let start = Arc::new(Barrier::new(2));
    // Two shards growing windows over the same shared table.
    let fills: Vec<_> = [(30, 700), (400, 1000)]
        .into_iter()
        .map(|(lo, hi)| {
            let table = Arc::clone(&table);
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                start.wait();
                (lo, table.entries_range(lo, hi).unwrap())
            })
        })
        .collect();
    for fill in fills {
        let (lo, entries) = fill.join().unwrap();
        let expected = &reference[lo - config.w_min..lo - config.w_min + entries.len()];
        assert_eq!(digest(&entries), digest(expected), "fill from {lo}");
    }
    assert_eq!(table.cached_entries(), reference.len());
    let all = table.entries_range(config.w_min, config.w_max).unwrap();
    assert_eq!(digest(&all), digest(&reference));
}
