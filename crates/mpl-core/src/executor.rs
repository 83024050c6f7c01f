//! The thread pool that colors a batch's component tasks.
//!
//! Independent components share no conflict or stitch edges, so their
//! color-assignment tasks commute: any schedule produces bit-identical
//! colors, and the pool decides only where each task runs, and so the wall
//! time.  A [`DecompositionSession`] batch (or a single plan's, through
//! [`DecompositionPlan::execute`]) sorts its tasks largest first across
//! every layout it holds; the pool's workers then drain that order, so the
//! big components that dominate wall time start first no matter which
//! layout they came from.
//!
//! [`DecompositionSession`]: crate::DecompositionSession
//! [`DecompositionPlan::execute`]: crate::DecompositionPlan::execute

use crate::ConfigError;
use mpl_geometry::map_ranges;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Colors a batch's tasks on a pool of worker threads, in batch order.
///
/// Workers pull batch positions from one shared cursor, so a small
/// layout's components fill the gaps while another layout's giant
/// component is still coloring.  The calling thread is worker 0, each
/// other worker a scoped thread ([`map_ranges`] starts them, and a worker
/// whose thread the host refuses runs on the calling thread); a one-thread
/// pool, the [`Default`], colors every task on the calling thread and
/// reports itself as `"serial"`.  Outcomes come back in batch order, so
/// every pool size gives bit-identical results; only the wall time
/// depends on the threads and on the host's parallelism.
#[derive(Debug, Clone)]
pub struct ThreadPoolExecutor {
    threads: usize,
    name: String,
}

impl Default for ThreadPoolExecutor {
    /// A one-thread pool: every task runs on the calling thread.
    fn default() -> Self {
        ThreadPoolExecutor::new(1).expect("one thread is a valid pool")
    }
}

impl ThreadPoolExecutor {
    /// Creates a pool with `threads` worker threads, the calling thread
    /// included.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::ThreadCount`] when `threads` is zero.
    pub fn new(threads: usize) -> Result<Self, ConfigError> {
        let name = match threads {
            0 => return Err(ConfigError::ThreadCount),
            1 => "serial".to_string(),
            _ => format!("threads:{threads}"),
        };
        Ok(ThreadPoolExecutor { threads, name })
    }

    /// Creates a pool sized to [`std::thread::available_parallelism`]
    /// (falling back to one thread when it cannot be determined).
    ///
    /// Note that the *available* parallelism is a property of the machine
    /// (and its CPU affinity and cgroup limits), not of the workload: a
    /// process pinned to one CPU (`taskset -c 0`) gets a one-thread pool.
    /// Report any wall-clock speedup together with this figure.
    pub fn available() -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        ThreadPoolExecutor::new(threads).expect("available parallelism is at least one")
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The name recorded on results: `"serial"` for one thread, else
    /// `"threads:N"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Runs `work` on every item, in position order across the workers, and
    /// returns the outputs in item order.
    pub(crate) fn run<T: Sync, R: Send>(
        &self,
        items: &[T],
        work: impl Fn(&T) -> R + Sync,
    ) -> Vec<R> {
        let workers = self.threads.min(items.len());
        let cursor = AtomicUsize::new(0);
        // One single-item range per worker: `map_ranges` runs the first on
        // the calling thread and each other on a scoped thread of its own,
        // or on the calling thread when the host refuses that thread.
        let drained = map_ranges(
            workers,
            workers,
            |_| 1,
            |_| {
                let mut completed = Vec::new();
                loop {
                    let position = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = items.get(position) else {
                        return completed;
                    };
                    completed.push((position, work(item)));
                }
            },
        );
        let mut slots: Vec<Option<R>> = Vec::new();
        slots.resize_with(items.len(), || None);
        for (position, output) in drained.into_iter().flatten() {
            slots[position] = Some(output);
        }
        slots
            .into_iter()
            .map(|slot| slot.expect("every item was run exactly once"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::ComponentOutcome;
    use crate::session::{BatchTask, LayoutId};
    use crate::{ComponentProblem, ComponentTask};
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
                conflicts,
                stitches,
                cost,
                ..Default::default()
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
        assert_eq!(ThreadPoolExecutor::default().name(), "serial");
        assert_eq!(ThreadPoolExecutor::new(1).unwrap().name(), "serial");
        assert_eq!(ThreadPoolExecutor::new(3).unwrap().name(), "threads:3");
    }

    #[test]
    fn a_one_thread_pool_colors_every_task_on_the_calling_thread() {
        let tasks = tasks(&[3, 1, 4, 1, 5]);
        let batch = tagged(&tasks);
        let here = std::thread::current().id();
        let pool = ThreadPoolExecutor::new(1).unwrap();
        let threads = pool.run(&batch, |_| std::thread::current().id());
        assert_eq!(threads, [here; 5]);
        assert_eq!(pool.name(), "serial");
    }

    #[test]
    fn outcomes_come_back_in_batch_order_for_every_executor() {
        let tasks = tasks(&[3, 1, 4, 1, 5, 9, 2, 6]);
        let batch = tagged(&tasks);
        let serial = ThreadPoolExecutor::default().run(&batch, echo_work);
        for threads in [1, 2, 4, 8, 32] {
            let pool = ThreadPoolExecutor::new(threads).unwrap();
            let parallel = pool.run(&batch, echo_work);
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
        let outcomes = pool.run(&batch, work);
        assert_eq!(outcomes.len(), 100);
        let seen = seen.into_inner().unwrap();
        assert_eq!(seen.len(), 100);
        assert_eq!(seen.iter().copied().collect::<HashSet<_>>().len(), 100);
    }

    #[test]
    fn empty_task_lists_are_fine() {
        for threads in [1, 4] {
            let pool = ThreadPoolExecutor::new(threads).unwrap();
            assert!(pool.run(&[], echo_work).is_empty());
        }
    }
}
