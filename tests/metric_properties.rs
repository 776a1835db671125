//! Property-based tests over the metric kernels and the preprocessing
//! substrate — the invariants the evaluation relies on.
//!
//! The original suite used `proptest`, which is unavailable in the offline
//! build environment, so the same properties are checked over 64 seeded
//! pseudo-random cases per test (deterministic — failures are reproducible
//! by construction).

use panda_surrogate::metrics::{
    diff_corr, distance_to_closest_record, jensen_shannon_divergence, mean_jsd, mean_wasserstein,
    pearson, theils_u, wasserstein_1d, DcrConfig,
};
use panda_surrogate::tabular::{
    histogram, Column, NumericTransform, QuantileTransformer, StandardScaler, Table,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

const CASES: u64 = 64;

/// Run `check` once per case with a per-case deterministic generator.
fn for_each_case(test_seed: u64, mut check: impl FnMut(&mut StdRng)) {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(test_seed.wrapping_mul(1_000_003) + case);
        check(&mut rng);
    }
}

fn finite_vec(rng: &mut StdRng, max_len: usize) -> Vec<f64> {
    let len = rng.gen_range(2..max_len);
    (0..len).map(|_| rng.gen_range(-1e6..1e6)).collect()
}

#[test]
fn wasserstein_is_nonnegative_and_symmetric() {
    for_each_case(1, |rng| {
        let a = finite_vec(rng, 50);
        let b = finite_vec(rng, 50);
        let d_ab = wasserstein_1d(&a, &b).unwrap();
        let d_ba = wasserstein_1d(&b, &a).unwrap();
        assert!(d_ab >= 0.0);
        assert!((d_ab - d_ba).abs() < 1e-9 * (1.0 + d_ab.abs()));
    });
}

#[test]
fn wasserstein_identity_of_indiscernibles() {
    for_each_case(2, |rng| {
        let a = finite_vec(rng, 50);
        assert!(wasserstein_1d(&a, &a).unwrap() < 1e-9);
    });
}

#[test]
fn wasserstein_translation_equals_shift() {
    for_each_case(3, |rng| {
        let a = finite_vec(rng, 40);
        let shift = rng.gen_range(0.1..1e3);
        let b: Vec<f64> = a.iter().map(|v| v + shift).collect();
        let d = wasserstein_1d(&a, &b).unwrap();
        assert!((d - shift).abs() < 1e-6 * (1.0 + shift));
    });
}

#[test]
fn pearson_is_bounded_and_scale_invariant() {
    for_each_case(4, |rng| {
        let a = finite_vec(rng, 40);
        let scale = rng.gen_range(0.1..100.0);
        let b: Vec<f64> = a.iter().map(|v| v * scale).collect();
        let r = pearson(&a, &b);
        assert!((-1.0 - 1e-12..=1.0 + 1e-12).contains(&r));
        // Perfectly linearly related (unless a is constant).
        let distinct = a.iter().any(|&v| (v - a[0]).abs() > 1e-9);
        if distinct {
            assert!((r - 1.0).abs() < 1e-6);
        }
    });
}

#[test]
fn jsd_is_symmetric_and_bounded() {
    for_each_case(5, |rng| {
        let counts = |rng: &mut StdRng| -> Vec<u32> {
            let len = rng.gen_range(2..6);
            (0..len).map(|_| rng.gen_range(1u32..100)).collect()
        };
        let p_counts = counts(rng);
        let q_counts = counts(rng);
        let to_dist = |counts: &[u32]| -> BTreeMap<String, f64> {
            let total: f64 = counts.iter().map(|&c| c as f64).sum();
            counts
                .iter()
                .enumerate()
                .map(|(i, &c)| (format!("label{i}"), c as f64 / total))
                .collect()
        };
        // Shared label space.
        let p = to_dist(&p_counts);
        let q = to_dist(&q_counts);
        let pq = jensen_shannon_divergence(&p, &q);
        let qp = jensen_shannon_divergence(&q, &p);
        assert!((pq - qp).abs() < 1e-12);
        assert!(pq >= 0.0);
        assert!(pq <= 2f64.ln() + 1e-12);
    });
}

#[test]
fn theils_u_is_bounded() {
    for_each_case(6, |rng| {
        let len = rng.gen_range(10..60);
        let codes_x: Vec<u32> = (0..len).map(|_| rng.gen_range(0u32..5)).collect();
        let shift = rng.gen_range(0u32..3);
        let codes_y: Vec<u32> = codes_x.iter().map(|c| (c + shift) % 5).collect();
        let u = theils_u(&codes_x, &codes_y);
        assert!((0.0..=1.0).contains(&u));
        // y is a bijection of x, so it fully determines x.
        assert!(u > 1.0 - 1e-9);
    });
}

#[test]
fn quantile_transform_preserves_order_and_roundtrips() {
    for_each_case(7, |rng| {
        let len = rng.gen_range(5..60);
        let values: Vec<f64> = (0..len).map(|_| rng.gen_range(-1e5..1e5)).collect();
        let mut qt = QuantileTransformer::new();
        let z = qt.fit_transform(&values).unwrap();
        // Order preservation.
        for i in 0..values.len() {
            for j in 0..values.len() {
                if values[i] < values[j] {
                    assert!(z[i] <= z[j] + 1e-12);
                }
            }
        }
        // Round-trip accuracy relative to the data span.
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let span = (max - min).max(1e-9);
        let back = qt.inverse_transform(&z).unwrap();
        for (orig, rec) in values.iter().zip(&back) {
            assert!((orig - rec).abs() <= 0.02 * span + 1e-9);
        }
    });
}

#[test]
fn standard_scaler_roundtrips() {
    for_each_case(8, |rng| {
        let values = finite_vec(rng, 50);
        let mut scaler = StandardScaler::new();
        let z = scaler.fit_transform(&values).unwrap();
        let back = scaler.inverse_transform(&z).unwrap();
        for (orig, rec) in values.iter().zip(&back) {
            assert!((orig - rec).abs() <= 1e-6 * (1.0 + orig.abs()));
        }
    });
}

#[test]
fn histogram_mass_is_conserved() {
    for_each_case(9, |rng| {
        let len = rng.gen_range(1..200);
        let values: Vec<f64> = (0..len).map(|_| rng.gen_range(-1e3..1e3)).collect();
        let bins = rng.gen_range(1usize..32);
        let h = histogram(&values, bins).unwrap();
        assert_eq!(h.counts.iter().sum::<u64>(), values.len() as u64);
        let pmf_sum: f64 = h.pmf().iter().sum();
        assert!((pmf_sum - 1.0).abs() < 1e-9);
    });
}

#[test]
fn table_take_preserves_row_content() {
    for_each_case(10, |rng| {
        let len = rng.gen_range(3..40);
        let values: Vec<f64> = (0..len).map(|_| rng.gen_range(-1e3..1e3)).collect();
        let labels: Vec<String> = (0..values.len()).map(|i| format!("cat{}", i % 3)).collect();
        let mut table = Table::new();
        table
            .push_column("x", Column::Numerical(values.clone()))
            .unwrap();
        table
            .push_column("c", Column::from_labels(&labels))
            .unwrap();
        let picks = rng.gen_range(1usize..10);
        let indices: Vec<usize> = (0..picks).map(|_| rng.gen_range(0..values.len())).collect();
        let sub = table.take(&indices);
        assert_eq!(sub.n_rows(), indices.len());
        for (row, &src) in indices.iter().enumerate() {
            assert_eq!(sub.numerical("x").unwrap()[row], values[src]);
            assert_eq!(sub.label("c", row).unwrap(), labels[src].as_str());
        }
    });
}

/// A random mixed table — two numerical and two categorical columns — with
/// fewer rows than DCR's default caps, so DCR scores every row.
fn mixed_table(rng: &mut StdRng) -> Table {
    let n = rng.gen_range(20..150);
    let mut table = Table::new();
    for name in ["cpu", "bytes"] {
        let values: Vec<f64> = (0..n).map(|_| rng.gen_range(-1e3..1e3)).collect();
        table.push_column(name, Column::Numerical(values)).unwrap();
    }
    for (name, arity) in [("site", 4), ("status", 2)] {
        let labels: Vec<String> = (0..n)
            .map(|_| format!("{name}{}", rng.gen_range(0..arity)))
            .collect();
        table
            .push_column(name, Column::from_labels(&labels))
            .unwrap();
    }
    table
}

/// The table's rows in a random order.
fn shuffled(table: &Table, rng: &mut StdRng) -> Table {
    let mut order: Vec<usize> = (0..table.n_rows()).collect();
    order.shuffle(rng);
    table.take(&order)
}

/// Equality up to the reordering of a row-order sum.
fn assert_close(label: &str, got: f64, want: f64) {
    assert!(
        (got - want).abs() <= 1e-12 * got.abs().max(want.abs()),
        "{label}: {got} vs {want}"
    );
}

#[test]
fn table_metrics_are_invariant_under_row_permutation() {
    let dcr = |train: &Table, synthetic: &Table| {
        distance_to_closest_record(train, synthetic, DcrConfig::default())
    };
    for_each_case(11, |rng| {
        let real = mixed_table(rng);
        let synthetic = mixed_table(rng);
        let real_p = shuffled(&real, rng);
        let synthetic_p = shuffled(&synthetic, rng);
        // Wasserstein sorts and JSD counts: exactly invariant.
        assert_eq!(
            mean_wasserstein(&real_p, &synthetic_p).unwrap(),
            mean_wasserstein(&real, &synthetic).unwrap()
        );
        assert_eq!(
            mean_jsd(&real_p, &synthetic_p).unwrap(),
            mean_jsd(&real, &synthetic).unwrap()
        );
        // DCR takes an exact minimum over the training rows, then sums the
        // minima in synthetic-row order.
        let base = dcr(&real, &synthetic);
        assert_eq!(dcr(&real_p, &synthetic), base);
        assert_close("dcr", dcr(&real, &synthetic_p), base);
        // diff-CORR's Pearson and correlation-ratio terms sum in row order.
        assert_close(
            "diff_corr",
            diff_corr(&real_p, &synthetic_p),
            diff_corr(&real, &synthetic),
        );
    });
}

#[test]
fn table_metrics_vanish_on_identical_tables() {
    for_each_case(12, |rng| {
        let table = mixed_table(rng);
        assert_eq!(mean_wasserstein(&table, &table).unwrap(), 0.0);
        assert_eq!(mean_jsd(&table, &table).unwrap(), 0.0);
        assert_eq!(diff_corr(&table, &table), 0.0);
        assert_eq!(
            distance_to_closest_record(&table, &table, DcrConfig::default()),
            0.0
        );
    });
}
