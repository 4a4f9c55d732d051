//! Range-splitting task scheduler for batch checking.
//!
//! [`run_tasks`] gives each of its `jobs` worker threads one contiguous
//! range of item indices — the even split of the batch — and each
//! worker takes items from the front of its own range, so neighbouring
//! units (which share interned strings and symbols) run on one thread.
//! A worker whose range runs dry moves the back half of the fullest
//! remaining range into its own, so a batch whose expensive items
//! cluster together (the common shape of real corpora — a few huge
//! fast paths among many small ones) stays balanced. A worker exits
//! once every range is empty. The whole scheduler is `std`: one mutex
//! per range and `std::thread::scope`.
//!
//! Every task runs under `catch_unwind`: one panicking item becomes an
//! `Err(message)` in its own output slot instead of tearing down the
//! whole batch.

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// Runs `f` over every item on `jobs` range-splitting workers,
/// preserving input order in the output. A panicking task yields
/// `Err(panic message)` for that item only.
pub fn run_tasks<T, R, F>(items: &[T], jobs: usize, f: F) -> Vec<Result<R, String>>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let jobs = jobs.clamp(1, items.len().max(1));
    let mut batch = pallas_trace::span(pallas_trace::Layer::Sched, "batch");
    batch.attr_u64("items", items.len() as u64);
    batch.attr_u64("jobs", jobs as u64);
    if jobs == 1 {
        return items.iter().map(|item| run_caught(&f, item)).collect();
    }
    let chunk = items.len().div_ceil(jobs);
    let ranges: Vec<Mutex<Range<usize>>> = (0..jobs)
        .map(|worker| {
            Mutex::new((worker * chunk).min(items.len())..((worker + 1) * chunk).min(items.len()))
        })
        .collect();
    let slots: Vec<Mutex<Option<Result<R, String>>>> =
        (0..items.len()).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for worker_index in 0..jobs {
            let (ranges, slots, f) = (&ranges, &slots, &f);
            scope.spawn(move || {
                let mut span = pallas_trace::span(pallas_trace::Layer::Sched, "worker");
                span.attr_u64("worker", worker_index as u64);
                let mut ran = 0u64;
                while let Some(index) = next_index(ranges, worker_index) {
                    *slots[index].lock().expect("result slot") = Some(run_caught(f, &items[index]));
                    ran += 1;
                }
                span.attr_u64("tasks", ran);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("result slot").expect("every task ran"))
        .collect()
}

/// The next index for worker `own`: the front of its own range, or,
/// once that is empty, the front of the back half it moves over from
/// the fullest range. `None` once every range is empty. No two range
/// locks are ever held at once, and an index leaves a range only under
/// that range's lock, so every index is handed out exactly once.
fn next_index(ranges: &[Mutex<Range<usize>>], own: usize) -> Option<usize> {
    loop {
        if let Some(index) = ranges[own].lock().expect("range").next() {
            return Some(index);
        }
        let victim = ranges
            .iter()
            .enumerate()
            .map(|(i, range)| (range.lock().expect("range").len(), i))
            .max()
            .filter(|&(len, _)| len > 0)?
            .1;
        let stolen = {
            let mut range = ranges[victim].lock().expect("range");
            let mid = range.end - range.len().div_ceil(2);
            mid..std::mem::replace(&mut range.end, mid)
        };
        if !stolen.is_empty() {
            // Only this worker refills its own range, and thieves only
            // shrink it, so the empty range cannot have changed.
            *ranges[own].lock().expect("range") = stolen.start + 1..stolen.end;
            return Some(stolen.start);
        }
    }
}

fn run_caught<T, R>(f: &impl Fn(&T) -> R, item: &T) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(|| f(item))).map_err(|payload| {
        payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "task panicked with a non-string payload".to_string())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..64).collect();
        let results = run_tasks(&items, 8, |&n| n * 2);
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r.as_ref().unwrap(), &(i * 2));
        }
    }

    /// Every item runs exactly once and lands in its own slot, for
    /// every batch size up to 40 and every worker count up to 9 —
    /// `jobs > items`, empty initial ranges and steals of one-item
    /// ranges included. Every seventh item blocks briefly so ranges
    /// drain unevenly and workers steal.
    #[test]
    fn every_item_runs_exactly_once_in_input_order() {
        for len in 0..=40usize {
            for jobs in 1..=9 {
                let runs: Vec<AtomicUsize> = (0..len).map(|_| AtomicUsize::new(0)).collect();
                let items: Vec<usize> = (0..len).collect();
                let results = run_tasks(&items, jobs, |&i| {
                    if i % 7 == 3 {
                        std::thread::sleep(Duration::from_micros(200));
                    }
                    runs[i].fetch_add(1, Ordering::SeqCst);
                    i
                });
                let got: Vec<usize> = results.into_iter().map(Result::unwrap).collect();
                assert_eq!(got, items, "len {len}, jobs {jobs}");
                for (i, count) in runs.iter().enumerate() {
                    assert_eq!(count.load(Ordering::SeqCst), 1, "item {i}, len {len}, jobs {jobs}");
                }
            }
        }
    }

    #[test]
    fn panic_isolated_to_its_item() {
        let items: Vec<usize> = (0..16).collect();
        let results = run_tasks(&items, 4, |&n| {
            assert!(n != 7, "task 7 exploded");
            n
        });
        for (i, r) in results.iter().enumerate() {
            if i == 7 {
                let msg = r.as_ref().unwrap_err();
                assert!(msg.contains("task 7 exploded"), "{msg}");
            } else {
                assert_eq!(r.as_ref().unwrap(), &i);
            }
        }
    }

    #[test]
    fn single_job_runs_inline() {
        let results = run_tasks(&[1, 2, 3], 1, |&n| n + 1);
        assert_eq!(results.len(), 3);
        assert_eq!(results[2].as_ref().unwrap(), &4);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let results = run_tasks::<u32, u32, _>(&[], 4, |&n| n);
        assert!(results.is_empty());
    }

    #[test]
    fn more_jobs_than_items_is_fine() {
        let results = run_tasks(&[10, 20], 16, |&n| n);
        assert_eq!(results.len(), 2);
        assert_eq!(results[1].as_ref().unwrap(), &20);
    }

    /// The balancing win, demonstrated independently of core count:
    /// a skewed workload whose cost is blocking time (sleeps overlap
    /// even on one CPU). The heavy cluster sits at the front, so a
    /// fixed contiguous split of 24 items over 4 workers would leave
    /// items 0..6 — six heavy items, 6 × 20ms = 120ms — on worker 0.
    /// Splitting ranges moves the heavy items to idle workers: about
    /// two per worker, ≈ 40ms.
    #[test]
    fn stealing_beats_chunking_on_a_skewed_blocking_workload() {
        use std::time::Instant;
        let costs: Vec<Duration> = (0..24)
            .map(|i| Duration::from_millis(if i < 8 { 20 } else { 1 }))
            .collect();
        let chunked_floor = Duration::from_millis(6 * 20);
        let started = Instant::now();
        let results = run_tasks(&costs, 4, |d| std::thread::sleep(*d));
        let makespan = started.elapsed();
        assert!(results.iter().all(Result::is_ok));
        // A wide margin so scheduler jitter cannot flake the test.
        assert!(
            makespan < chunked_floor * 3 / 4,
            "range splitting ({makespan:?}) should beat the chunked floor ({chunked_floor:?}) on skewed load"
        );
    }
}
