//! Pluggable execution strategies for batches of component tasks.
//!
//! Independent components share no conflict or stitch edges, so their
//! color-assignment tasks commute: any schedule produces bit-identical
//! colors.  An [`Executor`] therefore only decides *where and in which
//! order* the per-task work function runs.  Since the batch-first redesign
//! an executor drains a whole **batch** of [`BatchTask`]s — component tasks
//! tagged with the [`LayoutId`] of the layout they belong to — so one
//! shared pool can interleave work from many layouts (see
//! [`DecompositionSession`]):
//!
//! * [`SerialExecutor`] — runs tasks one after another on the calling
//!   thread (the behaviour of the classic `decompose` call).
//! * [`ThreadPoolExecutor`] — fans tasks out to a scoped thread pool
//!   (`std::thread::scope`, no external dependencies) with a
//!   largest-component-first work queue, so the big components that
//!   dominate wall-clock time start first no matter which layout they
//!   came from.
//!
//! Executors written against the pre-batch single-layout trait shape keep
//! working through the deprecated [`LayoutExecutor`] trait and the
//! [`BatchAdapter`] shim.
//!
//! [`DecompositionSession`]: crate::DecompositionSession

use crate::pipeline::{ComponentOutcome, ComponentTask};
use crate::session::{BatchTask, LayoutId};
use crate::ConfigError;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The per-task work function handed to an executor by
/// [`crate::DecompositionSession::run`] (and by
/// [`crate::DecompositionPlan::execute`], the one-plan batch).  It is pure
/// (identical outcomes for identical tasks) and `Sync`, so executors may
/// call it from any number of threads concurrently.
pub type BatchWork<'a> = dyn Fn(&BatchTask<'_>) -> ComponentOutcome + Sync + 'a;

/// The single-layout work function of the pre-batch API, kept for
/// [`LayoutExecutor`] implementations.
pub type TaskWork<'a> = dyn Fn(&ComponentTask) -> ComponentOutcome + Sync + 'a;

/// A strategy for running the tagged component tasks of a batch.
///
/// The batch may mix tasks from many layouts (a [`DecompositionSession`]
/// run) or come from a single plan ([`DecompositionPlan::execute`], which
/// tags every task with the same [`LayoutId`]).  The executor must return
/// the outcomes **in batch order** (outcome `i` belongs to `tasks[i]`,
/// regardless of the schedule it chose internally).
///
/// [`DecompositionSession`]: crate::DecompositionSession
/// [`DecompositionPlan::execute`]: crate::DecompositionPlan::execute
pub trait Executor {
    /// Short human-readable name recorded on results (e.g. `"serial"`).
    fn name(&self) -> &str;

    /// Runs `work` on every tagged task, returning the outcomes **in batch
    /// order**.
    fn run(&self, tasks: &[BatchTask<'_>], work: &BatchWork<'_>) -> Vec<ComponentOutcome>;
}

/// The pre-batch executor shape: schedules the tasks of **one** layout.
///
/// New executors should implement [`Executor`] directly — it sees the
/// whole cross-layout batch and can schedule globally.  Existing
/// single-layout implementations keep working by wrapping them in
/// [`BatchAdapter`], which slices a batch into per-layout runs.
#[deprecated(
    since = "0.1.0",
    note = "implement the batch-first `Executor` over `BatchTask`s, or wrap this in `BatchAdapter`"
)]
pub trait LayoutExecutor {
    /// Short human-readable name recorded on results.
    fn name(&self) -> &str;

    /// Runs `work` on every task of one layout, returning the outcomes in
    /// task order.
    fn run(&self, tasks: &[ComponentTask], work: &TaskWork<'_>) -> Vec<ComponentOutcome>;
}

/// Adapts a single-layout [`LayoutExecutor`] to the batch-first
/// [`Executor`] trait.
///
/// The batch is sliced into per-layout groups (first-appearance order) and
/// each group is handed to the wrapped executor as a plain task list, so a
/// legacy executor never sees tasks from two layouts at once.  This
/// serialises *between* layouts — cross-layout batching needs a native
/// [`Executor`] — but produces the same outcomes in batch order.
#[derive(Debug, Clone)]
pub struct BatchAdapter<E>(pub E);

#[allow(deprecated)]
impl<E: LayoutExecutor> Executor for BatchAdapter<E> {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn run(&self, tasks: &[BatchTask<'_>], work: &BatchWork<'_>) -> Vec<ComponentOutcome> {
        // Group batch positions by layout, keeping first-appearance order.
        let mut groups: Vec<(LayoutId, Vec<usize>)> = Vec::new();
        for (position, tagged) in tasks.iter().enumerate() {
            match groups.iter_mut().find(|(id, _)| *id == tagged.layout()) {
                Some((_, members)) => members.push(position),
                None => groups.push((tagged.layout(), vec![position])),
            }
        }
        let mut slots: Vec<Option<ComponentOutcome>> = Vec::new();
        slots.resize_with(tasks.len(), || None);
        for (_, members) in &groups {
            let owned: Vec<ComponentTask> = members
                .iter()
                .map(|&pos| tasks[pos].task().clone())
                .collect();
            // Task indices are unique within one layout, so they map the
            // legacy executor's untagged tasks back to batch positions.
            let shim = |task: &ComponentTask| {
                let position = members
                    .iter()
                    .copied()
                    .find(|&pos| tasks[pos].task().index() == task.index())
                    .expect("legacy executor ran a task outside its layout group");
                work(&tasks[position])
            };
            let outcomes = self.0.run(&owned, &shim);
            assert_eq!(
                outcomes.len(),
                members.len(),
                "legacy executor {:?} returned {} outcomes for {} tasks",
                self.0.name(),
                outcomes.len(),
                members.len()
            );
            for (&position, outcome) in members.iter().zip(outcomes) {
                slots[position] = Some(outcome);
            }
        }
        slots
            .into_iter()
            .map(|slot| slot.expect("every batch task belongs to exactly one layout group"))
            .collect()
    }
}

/// Runs every task sequentially on the calling thread, in batch order.
#[derive(Debug, Clone, Copy, Default)]
pub struct SerialExecutor;

impl Executor for SerialExecutor {
    fn name(&self) -> &str {
        "serial"
    }

    fn run(&self, tasks: &[BatchTask<'_>], work: &BatchWork<'_>) -> Vec<ComponentOutcome> {
        tasks.iter().map(work).collect()
    }
}

/// Runs tasks on a scoped pool of worker threads, largest component first.
///
/// Workers pull batch positions from a shared queue ordered by descending
/// vertex count **across the whole batch** — a small layout's components
/// fill the gaps while another layout's giant component is still coloring,
/// so pool workers never idle as long as any layout has work left.
/// Results are re-assembled in batch order, so the outcome is
/// bit-identical to [`SerialExecutor`] — only faster on multi-component
/// batches (given actual hardware parallelism; on a single-CPU machine the
/// pool degenerates to serial throughput).
#[derive(Debug, Clone)]
pub struct ThreadPoolExecutor {
    threads: usize,
    name: String,
}

impl ThreadPoolExecutor {
    /// Creates a pool with `threads` worker threads.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::ThreadCount`] when `threads` is zero.
    pub fn new(threads: usize) -> Result<Self, ConfigError> {
        if threads == 0 {
            return Err(ConfigError::ThreadCount);
        }
        Ok(ThreadPoolExecutor {
            threads,
            name: format!("threads:{threads}"),
        })
    }

    /// Creates a pool sized to [`std::thread::available_parallelism`]
    /// (falling back to one thread when it cannot be determined).
    ///
    /// Note that the *available* parallelism is a property of the machine
    /// (and its cgroup limits), not of the workload: on a single-CPU
    /// container — like the dev container whose measurements are recorded
    /// in `benchlogs/parallel_speedup.log` — this returns a one-thread
    /// pool, which schedules exactly like [`SerialExecutor`].  Wall-clock
    /// speedups must be measured on multi-core hardware.
    pub fn available() -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        ThreadPoolExecutor::new(threads).expect("available parallelism is at least one")
    }

    /// Creates a pool sized to the machine's available parallelism.
    #[deprecated(since = "0.1.0", note = "renamed to `ThreadPoolExecutor::available`")]
    pub fn with_available_parallelism() -> Self {
        ThreadPoolExecutor::available()
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }
}

impl Executor for ThreadPoolExecutor {
    fn name(&self) -> &str {
        &self.name
    }

    fn run(&self, tasks: &[BatchTask<'_>], work: &BatchWork<'_>) -> Vec<ComponentOutcome> {
        let workers = self.threads.min(tasks.len());
        if workers <= 1 {
            return SerialExecutor.run(tasks, work);
        }
        // Largest-component-first queue over the whole batch: big
        // components dominate coloring time, so starting them first
        // minimises the tail where most workers idle.  Ties keep batch
        // order for determinism of the *schedule*; the outcomes are
        // order-independent anyway.
        let mut order: Vec<usize> = (0..tasks.len()).collect();
        order.sort_by_key(|&index| (std::cmp::Reverse(tasks[index].vertex_count()), index));
        let cursor = AtomicUsize::new(0);
        let mut slots: Vec<Option<ComponentOutcome>> = Vec::new();
        slots.resize_with(tasks.len(), || None);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut completed = Vec::new();
                        loop {
                            let slot = cursor.fetch_add(1, Ordering::Relaxed);
                            let Some(&index) = order.get(slot) else {
                                return completed;
                            };
                            completed.push((index, work(&tasks[index])));
                        }
                    })
                })
                .collect();
            for handle in handles {
                let completed = handle.join().expect("executor worker panicked");
                for (index, outcome) in completed {
                    slots[index] = Some(outcome);
                }
            }
        });
        slots
            .into_iter()
            .map(|slot| slot.expect("every task was scheduled exactly once"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ComponentProblem;
    use std::collections::HashSet;
    use std::sync::Mutex;

    fn tasks(sizes: &[usize]) -> Vec<ComponentTask> {
        sizes
            .iter()
            .enumerate()
            .map(|(index, &n)| {
                let problem = ComponentProblem::new(n, 4, 0.1);
                ComponentTask::new(index, problem, (0..n).collect())
            })
            .collect()
    }

    /// Tags `tasks` alternately with two layout ids, as a session batch
    /// mixing two layouts would.
    fn tagged(tasks: &[ComponentTask]) -> Vec<BatchTask<'_>> {
        tasks
            .iter()
            .enumerate()
            .map(|(position, task)| BatchTask::new(LayoutId::new(position % 2), task))
            .collect()
    }

    fn echo_work(tagged: &BatchTask<'_>) -> ComponentOutcome {
        let task = tagged.task();
        let colors = vec![task.index() as u8; task.vertex_count()];
        let (conflicts, stitches, cost) = task.problem().evaluate(&vec![0; task.vertex_count()]);
        ComponentOutcome {
            colors,
            stats: crate::ComponentStats {
                index: task.index(),
                vertex_count: task.vertex_count(),
                conflict_edge_count: 0,
                stitch_edge_count: 0,
                conflicts,
                stitches,
                cost,
                time: std::time::Duration::ZERO,
                division_time: std::time::Duration::ZERO,
                bnb_nodes: 0,
                hit_time_limit: false,
                augmenting_paths: 0,
                augmenting_path_bound: 0,
                arc_scans: 0,
                scratch_allocs: 0,
                hidden_vertices: 0,
                kernel_vertices: 0,
                simplify_rounds: 0,
                bound_improvements: 0,
                cancelled: false,
                deadline_exceeded: false,
                skipped: false,
                memo_hit: None,
            },
        }
    }

    #[test]
    fn zero_threads_is_a_typed_error() {
        assert_eq!(
            ThreadPoolExecutor::new(0).unwrap_err(),
            ConfigError::ThreadCount
        );
        assert!(ThreadPoolExecutor::new(2).is_ok());
        assert!(ThreadPoolExecutor::available().threads() >= 1);
    }

    #[test]
    fn executors_report_their_names() {
        assert_eq!(SerialExecutor.name(), "serial");
        assert_eq!(ThreadPoolExecutor::new(3).unwrap().name(), "threads:3");
    }

    #[test]
    fn outcomes_come_back_in_batch_order_for_every_executor() {
        let tasks = tasks(&[3, 1, 4, 1, 5, 9, 2, 6]);
        let batch = tagged(&tasks);
        let serial = SerialExecutor.run(&batch, &echo_work);
        for threads in [1, 2, 4, 8, 32] {
            let pool = ThreadPoolExecutor::new(threads).unwrap();
            let parallel = pool.run(&batch, &echo_work);
            assert_eq!(parallel.len(), batch.len());
            for (index, (a, b)) in serial.iter().zip(&parallel).enumerate() {
                assert_eq!(a.colors, b.colors, "task {index}, {threads} threads");
                assert_eq!(a.stats.index, index);
                assert_eq!(b.stats.index, index);
            }
        }
    }

    #[test]
    fn every_task_runs_exactly_once_in_parallel() {
        let tasks = tasks(&[2; 100]);
        let batch = tagged(&tasks);
        let seen = Mutex::new(Vec::new());
        let work = |tagged: &BatchTask<'_>| {
            seen.lock().unwrap().push(tagged.task().index());
            echo_work(tagged)
        };
        let pool = ThreadPoolExecutor::new(4).unwrap();
        let outcomes = pool.run(&batch, &work);
        assert_eq!(outcomes.len(), 100);
        let seen = seen.into_inner().unwrap();
        assert_eq!(seen.len(), 100);
        assert_eq!(seen.iter().copied().collect::<HashSet<_>>().len(), 100);
    }

    #[test]
    fn empty_task_lists_are_fine() {
        let pool = ThreadPoolExecutor::new(4).unwrap();
        assert!(pool.run(&[], &echo_work).is_empty());
        assert!(SerialExecutor.run(&[], &echo_work).is_empty());
    }

    /// A legacy single-layout executor that reverses the task order it was
    /// given (stressing the adapter's batch-order reassembly).
    struct ReversingLegacy;

    #[allow(deprecated)]
    impl LayoutExecutor for ReversingLegacy {
        fn name(&self) -> &str {
            "legacy-reversed"
        }

        fn run(&self, tasks: &[ComponentTask], work: &TaskWork<'_>) -> Vec<ComponentOutcome> {
            let mut outcomes: Vec<ComponentOutcome> = tasks.iter().rev().map(work).collect();
            outcomes.reverse();
            outcomes
        }
    }

    #[test]
    fn batch_adapter_runs_legacy_executors_per_layout_in_batch_order() {
        let tasks = tasks(&[3, 1, 4, 1, 5, 9]);
        // Interleaved layouts: the adapter must regroup them.
        let batch = tagged(&tasks);
        let adapted = BatchAdapter(ReversingLegacy);
        assert_eq!(adapted.name(), "legacy-reversed");
        let outcomes = adapted.run(&batch, &echo_work);
        let serial = SerialExecutor.run(&batch, &echo_work);
        assert_eq!(outcomes.len(), serial.len());
        for (a, b) in outcomes.iter().zip(&serial) {
            assert_eq!(a.colors, b.colors);
            assert_eq!(a.stats.index, b.stats.index);
        }
    }
}
