//! Oracle tests for SMOTE's exact SIMD-tiled neighbour search
//! (`nn::knn::k_nearest`): on randomised mixed-type tables, every fitted
//! neighbour list must equal the frozen seed brute force
//! (`nn::knn::reference::brute_force_knn`) run on the same anchors.
//!
//! The tables cover exact ties (duplicated rows and coarse value grids,
//! which must resolve to the lower row index), row counts that are not
//! multiples of the register tile's 4 anchors or 8 candidate lanes,
//! `k ≥ n − 1` clamping and `max_anchor_rows` subsampling. Neighbour lists
//! are a discrete output, so CI reruns this suite under every
//! `SURROGATE_SIMD` tier (see the simd-matrix job), the fused `fma` and
//! `avx512` tiers included: the equality has no tolerance on any of them.

use panda_surrogate::nn::knn::reference::brute_force_knn;
use panda_surrogate::surrogate::{SmoteConfig, SmoteSampler, TabularGenerator};
use panda_surrogate::tabular::{Column, Table};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random table of `n` rows: two numerical columns (one on a coarse
/// grid, so distinct rows tie), two categorical ones, and roughly one row
/// in six an exact copy of an earlier row.
fn random_table(rng: &mut StdRng, n: usize) -> Table {
    let mut smooth: Vec<f64> = Vec::with_capacity(n);
    let mut coarse: Vec<f64> = Vec::with_capacity(n);
    let mut site: Vec<&str> = Vec::with_capacity(n);
    let mut kind: Vec<&str> = Vec::with_capacity(n);
    for r in 0..n {
        if r > 0 && rng.gen_range(0..6) == 0 {
            let src = rng.gen_range(0..r);
            smooth.push(smooth[src]);
            coarse.push(coarse[src]);
            site.push(site[src]);
            kind.push(kind[src]);
        } else {
            smooth.push(rng.gen_range(-50.0..50.0));
            coarse.push(f64::from(rng.gen_range(0..5u8)));
            site.push(["BNL", "CERN", "SLAC", "TRIUMF"][rng.gen_range(0..4)]);
            kind.push(["prod", "user"][rng.gen_range(0..2)]);
        }
    }
    let mut table = Table::new();
    table
        .push_column("workload", Column::Numerical(smooth))
        .unwrap();
    table
        .push_column("cores", Column::Numerical(coarse))
        .unwrap();
    table
        .push_column("site", Column::from_labels(&site))
        .unwrap();
    table
        .push_column("kind", Column::from_labels(&kind))
        .unwrap();
    table
}

/// Fit SMOTE and check its stored lists against the oracle on the anchors
/// it kept, with `k` clamped the way `fit` clamps it.
fn assert_matches_oracle(table: &Table, config: SmoteConfig) -> SmoteSampler {
    let mut smote = SmoteSampler::new(config);
    smote.fit(table).unwrap();
    let anchors = smote.anchors().expect("fitted");
    let k = config.k_neighbors.min(anchors.rows() - 1).max(1);
    let label = format!("n={} config={config:?}", table.n_rows());
    assert_eq!(
        smote.neighbors(),
        brute_force_knn(anchors, k).as_slice(),
        "{label}"
    );
    for (i, list) in smote.neighbors().iter().enumerate() {
        assert_eq!(list.len(), k.min(anchors.rows() - 1), "{label} row {i}");
        assert_eq!(list.capacity(), list.len(), "{label} row {i}");
    }
    smote
}

#[test]
fn neighbour_lists_equal_the_frozen_brute_force_on_random_tables() {
    let mut rng = StdRng::seed_from_u64(2024);
    // Row counts straddle every multiple of the 4-anchor tile and the
    // 8-lane block, plus one past the 256-candidate stripe.
    for n in [2, 3, 4, 5, 7, 8, 9, 13, 31, 33, 64, 97, 263] {
        let table = random_table(&mut rng, n);
        for k_neighbors in [1, 2, 5, 9] {
            assert_matches_oracle(
                &table,
                SmoteConfig {
                    k_neighbors,
                    ..SmoteConfig::default()
                },
            );
        }
    }
}

#[test]
fn k_at_or_above_n_minus_one_keeps_every_other_row() {
    let mut rng = StdRng::seed_from_u64(7);
    for n in [2, 5, 6, 11] {
        let table = random_table(&mut rng, n);
        for k_neighbors in [n - 1, n, n + 20] {
            let smote = assert_matches_oracle(
                &table,
                SmoteConfig {
                    k_neighbors,
                    ..SmoteConfig::default()
                },
            );
            for (i, list) in smote.neighbors().iter().enumerate() {
                let mut seen = list.clone();
                seen.sort_unstable();
                let others: Vec<usize> = (0..n).filter(|&j| j != i).collect();
                assert_eq!(seen, others, "n={n} k={k_neighbors} row {i}");
            }
        }
    }
}

#[test]
fn exact_duplicates_tie_to_the_lower_index() {
    // Twelve identical rows: every distance is zero, so each row's
    // neighbours are the lowest-indexed other rows.
    let mut table = Table::new();
    table
        .push_column("workload", Column::Numerical(vec![3.5; 12]))
        .unwrap();
    table
        .push_column("site", Column::from_labels(&["CERN"; 12]))
        .unwrap();
    let smote = assert_matches_oracle(
        &table,
        SmoteConfig {
            k_neighbors: 3,
            ..SmoteConfig::default()
        },
    );
    assert_eq!(smote.neighbors()[0], vec![1, 2, 3]);
    assert_eq!(smote.neighbors()[2], vec![0, 1, 3]);
    assert_eq!(smote.neighbors()[11], vec![0, 1, 2]);
}

#[test]
fn anchor_subsampling_searches_only_the_kept_rows() {
    let mut rng = StdRng::seed_from_u64(99);
    for (n, cap) in [(100, 37), (211, 64), (90, 89), (50, 2)] {
        let table = random_table(&mut rng, n);
        let smote = assert_matches_oracle(
            &table,
            SmoteConfig {
                k_neighbors: 5,
                max_anchor_rows: cap,
            },
        );
        assert_eq!(smote.anchors().unwrap().rows(), cap);
    }
}
