//! Racing first readers of one matrix must share a single row fill.
//!
//! A `DistanceMatrix` fills its `n × n` sorted rows the first time a method
//! reads them. Threads that read first at the same time must wait for that
//! one fill instead of each sorting their own copy, and must all see the
//! same rows afterwards.
//!
//! `distance::debug_rows_build_count()` counts every row fill in the process
//! (debug builds only). This file holds exactly **one** test so nothing
//! else in the binary races the counter.

use privcluster_geometry::distance::debug_rows_build_count;
use privcluster_geometry::{Dataset, DistanceMatrix};
use std::sync::{Arc, Barrier};

const THREADS: usize = 4;

#[test]
fn racing_first_readers_fill_the_rows_once() {
    let data = Dataset::from_rows(
        (0..300)
            .map(|i| vec![(i as f64 * 0.37).sin(), (i as f64 * 0.91).cos()])
            .collect(),
    )
    .unwrap();
    let reference = DistanceMatrix::build(&data);
    let expected: Vec<usize> = (0..THREADS)
        .map(|i| reference.count_within(i, 0.5))
        .collect();

    let dm = DistanceMatrix::build_parallel(&data, 2);
    let barrier = Arc::new(Barrier::new(THREADS));
    let before = debug_rows_build_count();
    let seen: Vec<(usize, usize)> = (0..THREADS)
        .map(|i| {
            let dm = dm.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                let count = dm.count_within(i, 0.5);
                (count, dm.sorted_row(0).as_ptr() as usize)
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|handle| handle.join().expect("reader thread"))
        .collect();
    let fills = debug_rows_build_count() - before;

    for (i, &(count, _)) in seen.iter().enumerate() {
        assert_eq!(count, expected[i], "reader {i} counted a different ball");
    }
    assert!(
        seen.iter().all(|&(_, rows)| rows == seen[0].1),
        "racing readers must share one set of rows"
    );
    if cfg!(debug_assertions) {
        assert_eq!(
            fills, 1,
            "{THREADS} racing readers filled the rows {fills} times"
        );
    }
}
