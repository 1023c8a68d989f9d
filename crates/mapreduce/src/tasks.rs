//! The worker-claim task scaffold every phase of the MapReduce engine
//! runs on: N scoped OS threads claim task indices from one shared
//! atomic cursor and fold each claimed task into a per-worker
//! accumulator.
//!
//! The pattern appeared verbatim in the map, combined map, and reduce
//! phases; extracting it keeps the claim discipline in one audited
//! place: the cursor is the only shared mutable state, so workers never
//! contend on anything else. Each call starts its own threads, so one
//! phase costs `num_workers` thread spawns (`dsg-engine`'s planner caps
//! a request's worker count).

use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `num_tasks` tasks on `num_workers.max(1)` scoped threads and
/// returns the per-worker accumulators in worker order.
///
/// Each worker claims task indices in submission order from one shared
/// atomic cursor — dynamic load balancing with no work queue: a long
/// task delays only its own worker, never the claim path. `init(w)`
/// builds worker `w`'s accumulator; `work(t, acc)` folds task `t` into
/// it.
///
/// Determinism contract: *which* worker runs a task is scheduling-
/// dependent, so callers must make their fold outputs order-independent
/// across workers — the map phases tag every emission with the split
/// index and re-sort in the shuffle, and the reduce phase carries each
/// partition's index through its accumulator.
pub fn run_tasks<A, I, F>(num_workers: usize, num_tasks: usize, init: I, work: F) -> Vec<A>
where
    A: Send,
    I: Fn(usize) -> A + Sync,
    F: Fn(usize, &mut A) + Sync,
{
    let num_workers = num_workers.max(1);
    let cursor = AtomicUsize::new(0);
    let mut accs = Vec::with_capacity(num_workers);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(num_workers);
        for w in 0..num_workers {
            let cursor = &cursor;
            let init = &init;
            let work = &work;
            handles.push(scope.spawn(move || {
                let mut acc = init(w);
                loop {
                    let t = cursor.fetch_add(1, Ordering::Relaxed);
                    if t >= num_tasks {
                        break;
                    }
                    work(t, &mut acc);
                }
                acc
            }));
        }
        for h in handles {
            accs.push(h.join().expect("task worker panicked"));
        }
    });
    accs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_task_runs_exactly_once() {
        let n = 257;
        let accs = run_tasks(4, n, |_| Vec::new(), |t, acc: &mut Vec<usize>| acc.push(t));
        assert_eq!(accs.len(), 4);
        let mut all: Vec<usize> = accs.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn zero_workers_is_clamped_and_zero_tasks_is_empty() {
        let accs = run_tasks(0, 3, |_| 0usize, |_, acc| *acc += 1);
        assert_eq!(accs, vec![3]);
        let accs = run_tasks(3, 0, |w| w, |_, _| unreachable!("no tasks"));
        assert_eq!(accs, vec![0, 1, 2]);
    }

    #[test]
    fn accumulators_come_back_in_worker_order() {
        let accs = run_tasks(5, 0, |w| w * 10, |_, _| {});
        assert_eq!(accs, vec![0, 10, 20, 30, 40]);
    }
}
