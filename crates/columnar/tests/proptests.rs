//! Property-based tests for the columnar substrate: vectorized operators
//! must agree with naive scalar reference implementations on arbitrary data.

use proptest::prelude::*;

use raw_columnar::batch::TableTag;
use raw_columnar::ops::{
    collect, AggAccumulator, AggExpr, AggKind, BatchSource, FilterOp, GroupCountOp, GroupExtra,
    HashJoinOp, Operator,
};
use raw_columnar::{Batch, Bitmask, CmpOp, Column, Predicate, SparseColumn, Value};

/// Split a vector into batches of the given sizes (for exercising batch
/// boundaries).
fn batches_of(values: &[i64], batch: usize) -> Vec<Batch> {
    values
        .chunks(batch.max(1))
        .scan(0u64, |row, chunk| {
            let rows: Vec<u64> = (*row..*row + chunk.len() as u64).collect();
            *row += chunk.len() as u64;
            Some(
                Batch::new(vec![chunk.to_vec().into()])
                    .unwrap()
                    .with_provenance(TableTag(0), rows)
                    .unwrap(),
            )
        })
        .collect()
}

proptest! {
    #[test]
    fn filter_equals_naive(
        values in proptest::collection::vec(-1000i64..1000, 0..200),
        threshold in -1000i64..1000,
        batch in 1usize..40,
    ) {
        let mut op = FilterOp::new(
            Box::new(BatchSource::new(batches_of(&values, batch))),
            Predicate::cmp(0, CmpOp::Lt, threshold),
        );
        let out = collect(&mut op).unwrap();
        let expected: Vec<i64> = values.iter().copied().filter(|&v| v < threshold).collect();
        if expected.is_empty() {
            prop_assert_eq!(out.rows(), 0);
        } else {
            prop_assert_eq!(out.column(0).unwrap().as_i64().unwrap(), &expected[..]);
            // Provenance identifies exactly the surviving rows.
            let rows: Vec<u64> = values
                .iter()
                .enumerate()
                .filter(|&(_, &v)| v < threshold)
                .map(|(i, _)| i as u64)
                .collect();
            prop_assert_eq!(out.rows_of(TableTag(0)).unwrap_or(&[]), &rows[..]);
        }
    }

    #[test]
    fn aggregates_equal_naive(
        values in proptest::collection::vec(-10_000i64..10_000, 1..300),
        batch in 1usize..64,
    ) {
        let exprs = vec![
            AggExpr { kind: AggKind::Max, col: 0 },
            AggExpr { kind: AggKind::Min, col: 0 },
            AggExpr { kind: AggKind::Sum, col: 0 },
            AggExpr { kind: AggKind::Count, col: 0 },
        ];
        let mut acc = AggAccumulator::new(exprs);
        for b in batches_of(&values, batch) {
            acc.update(&b).unwrap();
        }
        let out = acc.finish().unwrap();
        prop_assert_eq!(out.value(0, 0).unwrap(), Value::Int64(*values.iter().max().unwrap()));
        prop_assert_eq!(out.value(0, 1).unwrap(), Value::Int64(*values.iter().min().unwrap()));
        prop_assert_eq!(out.value(0, 2).unwrap(), Value::Int64(values.iter().sum::<i64>()));
        prop_assert_eq!(out.value(0, 3).unwrap(), Value::Int64(values.len() as i64));
    }

    #[test]
    fn hash_join_equals_nested_loop(
        probe in proptest::collection::vec(0i64..30, 0..80),
        build in proptest::collection::vec(0i64..30, 0..80),
        batch in 1usize..32,
    ) {
        let probe_batches = batches_of(&probe, batch);
        let build_payload: Vec<i64> = build.iter().map(|&k| k * 1000).collect();
        let build_batch = Batch::new(vec![build.clone().into(), build_payload.into()]).unwrap();
        let mut join = HashJoinOp::new(
            Box::new(BatchSource::new(probe_batches)),
            Box::new(BatchSource::new(vec![build_batch])),
            0,
            0,
        );
        let out = collect(&mut join).unwrap();

        // Naive nested loop, probe-major (the order HashJoinOp guarantees).
        let mut expected_keys = Vec::new();
        let mut expected_payload = Vec::new();
        for &p in &probe {
            for &b in &build {
                if p == b {
                    expected_keys.push(p);
                    expected_payload.push(b * 1000);
                }
            }
        }
        if expected_keys.is_empty() {
            prop_assert_eq!(out.rows(), 0);
        } else {
            prop_assert_eq!(out.column(0).unwrap().as_i64().unwrap(), &expected_keys[..]);
            prop_assert_eq!(out.column(2).unwrap().as_i64().unwrap(), &expected_payload[..]);
        }
    }

    #[test]
    fn group_count_equals_naive(
        keys in proptest::collection::vec(0i64..20, 0..300),
        batch in 1usize..50,
        sorted in proptest::bool::ANY,
    ) {
        // Exercise both the sorted fast path and the hashed fallback.
        let mut keys = keys;
        if sorted {
            keys.sort_unstable();
        }
        let mut op = GroupCountOp::new(
            Box::new(BatchSource::new(batches_of(&keys, batch))),
            0,
            GroupExtra::None,
        );
        let out = op.next_batch().unwrap().unwrap();
        let mut expected: std::collections::BTreeMap<i64, i64> = Default::default();
        for &k in &keys {
            *expected.entry(k).or_insert(0) += 1;
        }
        let got_keys = out.column(0).unwrap().as_i64().unwrap();
        let got_counts = out.column(1).unwrap().as_i64().unwrap();
        let expected_keys: Vec<i64> = expected.keys().copied().collect();
        let expected_counts: Vec<i64> = expected.values().copied().collect();
        prop_assert_eq!(got_keys, &expected_keys[..]);
        prop_assert_eq!(got_counts, &expected_counts[..]);
    }

    #[test]
    fn batch_take_preserves_alignment(
        values in proptest::collection::vec(0i64..1000, 1..100),
        indices in proptest::collection::vec(0usize..100, 0..50),
    ) {
        let n = values.len();
        let indices: Vec<usize> = indices.into_iter().map(|i| i % n).collect();
        let doubled: Vec<i64> = values.iter().map(|&v| v * 2).collect();
        let b = Batch::new(vec![values.clone().into(), doubled.into()])
            .unwrap()
            .with_provenance(TableTag(3), (0..n as u64).collect())
            .unwrap();
        let t = b.take(&indices).unwrap();
        for (pos, &i) in indices.iter().enumerate() {
            prop_assert_eq!(t.value(pos, 0).unwrap(), Value::Int64(values[i]));
            prop_assert_eq!(t.value(pos, 1).unwrap(), Value::Int64(values[i] * 2));
            prop_assert_eq!(t.rows_of(TableTag(3)).unwrap()[pos], i as u64);
        }
    }

    #[test]
    fn bitmask_covers_iff_subset(
        a in proptest::collection::btree_set(0usize..200, 0..50),
        b in proptest::collection::btree_set(0usize..200, 0..50),
    ) {
        let ma: Bitmask = a.iter().copied().collect();
        let mb: Bitmask = b.iter().copied().collect();
        prop_assert_eq!(ma.covers(&mb), b.is_subset(&a));
        // Union covers both.
        let mut u = ma.clone();
        u.union_with(&mb);
        prop_assert!(u.covers(&ma));
        prop_assert!(u.covers(&mb));
        prop_assert_eq!(u.count_ones(), a.union(&b).count());
    }

    #[test]
    fn sparse_column_roundtrip(
        stores in proptest::collection::vec((0usize..100, -500i64..500), 0..60),
        len in 1usize..100,
    ) {
        let mut s = SparseColumn::new(raw_columnar::DataType::Int64, len);
        let mut reference: std::collections::HashMap<usize, i64> = Default::default();
        for &(row, v) in &stores {
            s.store(row, &Value::Int64(v)).unwrap();
            reference.insert(row, v);
        }
        prop_assert_eq!(s.loaded_count(), reference.len());
        for (&row, &v) in &reference {
            prop_assert_eq!(s.get(row).unwrap(), Value::Int64(v));
        }
        // Unloaded rows always error.
        for row in 0..len {
            if !reference.contains_key(&row) {
                prop_assert!(s.get(row).is_err());
            }
        }
        // covers_rows agrees with the reference key set.
        let rows: Vec<usize> = (0..len).collect();
        prop_assert_eq!(s.covers_rows(&rows), (0..len).all(|r| reference.contains_key(&r)));
    }

    #[test]
    fn store_column_contiguous_equals_scatter(
        start in 0usize..50,
        values in proptest::collection::vec(-100i64..100, 1..50),
    ) {
        let rows: Vec<u64> = (start as u64..(start + values.len()) as u64).collect();
        let col: Column = values.clone().into();

        let mut bulk = SparseColumn::new(raw_columnar::DataType::Int64, start + values.len());
        bulk.store_column(&rows, &col).unwrap();

        let mut scatter = SparseColumn::new(raw_columnar::DataType::Int64, start + values.len());
        // Reversed order forces the non-contiguous path.
        let rev_rows: Vec<u64> = rows.iter().rev().copied().collect();
        let rev_col: Column = values.iter().rev().copied().collect::<Vec<_>>().into();
        scatter.store_column(&rev_rows, &rev_col).unwrap();

        prop_assert_eq!(bulk, scatter);
    }
}
