//! Batch-first execution: a [`DecompositionSession`] colors the component
//! tasks of **many** layouts on one shared thread pool.
//!
//! The paper's graph-division stage deliberately shatters a layout into
//! many small independent coloring problems.  Scheduling those problems
//! per layout leaves pool workers idle whenever a layout is small; a
//! session instead collects every submitted plan's [`ComponentTask`]s into
//! one shared, largest-first global queue — each task tagged with the
//! [`LayoutId`] of the layout it belongs to — and drains the whole batch
//! through one [`ThreadPoolExecutor`].  Because components are independent
//! by construction, the per-layout results are bit-identical to running
//! each layout alone on a one-thread pool; only the schedule (and the wall
//! clock) changes.
//!
//! [`DecompositionPlan::execute`](crate::DecompositionPlan::execute) is the
//! degenerate one-plan batch and shares this module's engine.

use crate::assign::assigner_for;
use crate::memo::{canonical_problem, canonicalize_tasks, config_fingerprint};
use crate::pipeline::{
    ComponentOutcome, ComponentStats, ComponentTask, DecompositionPlan, Progress,
};
use crate::{
    coloring_cost, DecomposeError, Decomposer, DecompositionResult, ThreadPoolExecutor, TileConfig,
};
use mpl_geometry::range_count;
use mpl_layout::{Layout, LayoutHierarchy};
use mpl_memo::{CanonicalComponent, MemoCache, Signature};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Identifies one layout within a [`DecompositionSession`] batch.
///
/// Ids are assigned by [`DecompositionSession::submit`] in submission order
/// (`0, 1, 2, …`) and tag every component task, [`Progress`] tick and result
/// of the batch, so cross-layout consumers can tell whose component just
/// finished.  A plan executed on its own ([`DecompositionPlan::execute`])
/// is the degenerate batch and uses id `0`.
///
/// [`DecompositionPlan::execute`]: crate::DecompositionPlan::execute
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LayoutId(usize);

impl LayoutId {
    /// Creates an id with the given index (sessions assign ids themselves).
    pub(crate) fn new(index: usize) -> Self {
        LayoutId(index)
    }

    /// The position of the layout in its batch's submission order.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for LayoutId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "layout#{}", self.0)
    }
}

/// A [`ComponentTask`] tagged with the layout it belongs to — the unit of
/// work the pool runs within a batch.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BatchTask<'a> {
    layout: LayoutId,
    task: &'a ComponentTask,
    cancel: Option<&'a crate::CancelToken>,
}

impl<'a> BatchTask<'a> {
    /// Tags `task` with the layout it came from.
    pub fn new(layout: LayoutId, task: &'a ComponentTask) -> Self {
        BatchTask {
            layout,
            task,
            cancel: None,
        }
    }

    /// Attaches the cancel token of the task's request (builder form; tasks
    /// built by sessions carry the token registered with
    /// [`DecompositionSession::set_cancel`]).
    pub fn with_cancel(mut self, cancel: Option<&'a crate::CancelToken>) -> Self {
        self.cancel = cancel;
        self
    }

    /// The layout this task belongs to.
    pub fn layout(&self) -> LayoutId {
        self.layout
    }

    /// The underlying component task.
    pub fn task(&self) -> &'a ComponentTask {
        self.task
    }

    /// The cancel token attached to this task's request, if any.
    pub fn cancel(&self) -> Option<&'a crate::CancelToken> {
        self.cancel
    }

    /// Polls the attached cancel token (promoting an expired deadline into
    /// its sticky flags).  `true` means the task should be skipped if it has
    /// not started yet; the batch work function checks this before invoking
    /// an engine, so not-yet-started tasks of a cancelled request degrade to
    /// cheap placeholder outcomes.
    pub fn poll_cancel(&self) -> bool {
        self.cancel.is_some_and(crate::CancelToken::poll)
    }

    /// Number of vertices in the component (the scheduling weight).
    pub fn vertex_count(&self) -> usize {
        self.task.vertex_count()
    }
}

/// A batch of decomposition plans executed on one shared thread pool.
///
/// Plans are added with [`submit`](DecompositionSession::submit) (or
/// [`submit_layout`](DecompositionSession::submit_layout), which plans
/// internally) and executed together by
/// [`run`](DecompositionSession::run): every plan's component tasks enter
/// one largest-first global queue, so the pool keeps all workers busy as
/// long as *any* layout still has components left — small layouts no
/// longer serialise behind each other.
///
/// Running does not consume the session; like a single plan, the same
/// batch can be executed several times (e.g. once per pool size when
/// comparing schedules) and yields bit-identical colors every time.
///
/// # Example
///
/// ```
/// use mpl_core::{ColorAlgorithm, Decomposer, DecomposerConfig, DecompositionSession,
///                ThreadPoolExecutor};
/// use mpl_layout::{gen, Technology};
///
/// let tech = Technology::nm20();
/// let decomposer = Decomposer::new(
///     DecomposerConfig::quadruple(tech).with_algorithm(ColorAlgorithm::Linear),
/// );
///
/// let mut session = DecompositionSession::new();
/// let a = session.submit_layout(&decomposer, &gen::fig1_contact_clique(&tech))?;
/// let b = session.submit_layout(&decomposer, &gen::k5_cluster_layout(&tech))?;
///
/// // One shared pool drains both layouts' components...
/// let results = session.run(&ThreadPoolExecutor::new(2)?);
/// assert_eq!(results.len(), 2);
/// // ...and every layout's colors match its standalone one-thread run.
/// for (id, result) in &results {
///     let plan = session.plan(*id).unwrap();
///     assert_eq!(result.colors(), plan.execute(&ThreadPoolExecutor::default()).colors());
/// }
/// assert_eq!(results[0].0, a);
/// assert_eq!(results[1].0, b);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct DecompositionSession {
    plans: Vec<DecompositionPlan>,
    /// Id of the first plan in `plans`.  Starts at zero and advances by
    /// [`clear`](DecompositionSession::clear), so a long-running service
    /// that reuses one session batch after batch never sees two layouts
    /// share a [`LayoutId`].
    base: usize,
    /// The translation-canonical memo cache consulted before any component
    /// task reaches the pool; `None` (the default) disables
    /// memoization.  Shared caches outlive batches and sessions.
    memo: Option<Arc<MemoCache>>,
    /// Spatial tiling requested for this session's layouts; `None` (the
    /// default) decomposes every component whole.  The session only stores
    /// the configuration — [`run`](DecompositionSession::run) ignores it —
    /// and the `mpl-tile` crate's tiled driver consumes it.
    tiling: Option<TileConfig>,
    /// Cell-instance provenance for submitted layouts, keyed by
    /// [`LayoutId::index`].  The session only stores the attachments —
    /// [`run`](DecompositionSession::run) ignores them — and the `mpl-hier`
    /// crate's hierarchical driver consumes them.
    hierarchies: HashMap<usize, Arc<LayoutHierarchy>>,
    /// Cancel tokens for submitted layouts, keyed by [`LayoutId::index`].
    /// [`run`](DecompositionSession::run) attaches each token to its
    /// layout's tasks, so cancelling (or expiring) a token turns the rest of
    /// that layout's run into cheap skipped placeholders.
    cancels: HashMap<usize, crate::CancelToken>,
}

impl DecompositionSession {
    /// Creates an empty session.
    pub fn new() -> Self {
        DecompositionSession::default()
    }

    /// Attaches a translation-canonical memo cache (builder form of
    /// [`set_memo`](DecompositionSession::set_memo)).
    pub fn with_memo(mut self, cache: Arc<MemoCache>) -> Self {
        self.memo = Some(cache);
        self
    }

    /// Attaches (or, with `None`, detaches) a memo cache.
    ///
    /// With a cache attached, every component is canonicalized before it is
    /// scheduled: cache hits — and repeats of a component already scheduled
    /// in the same batch — bypass the pool entirely and are stamped
    /// from the stored canonical coloring at collection time.  Cache misses
    /// color the **canonical** form of the component, so the colors a
    /// component receives are a pure function of its signature: identical
    /// for every translated copy, every pool size, every batch shape, and
    /// every cache state (warm results are bit-identical to cold ones).
    /// They may, however, differ from the colors the same plan produces
    /// *without* a cache, where the engine sees the live vertex order.
    ///
    /// Caches are shared by cloning the [`Arc`]: a service attaches one
    /// cache to every session so repeated submissions of the same cell
    /// library get faster over time.  Per-component provenance is reported
    /// in [`ComponentStats::memo_hit`] and summarised by
    /// [`DecompositionResult::memo_hits`](crate::DecompositionResult::memo_hits).
    pub fn set_memo(&mut self, cache: Option<Arc<MemoCache>>) {
        self.memo = cache;
    }

    /// The attached memo cache, if any.
    pub fn memo(&self) -> Option<&Arc<MemoCache>> {
        self.memo.as_ref()
    }

    /// Requests (or, with `None`, cancels) spatial tiling for the session's
    /// layouts.
    ///
    /// The session itself never tiles:
    /// [`run`](DecompositionSession::run) always decomposes components
    /// whole.  The configuration stored here is the contract between the
    /// front ends and the `mpl-tile` crate, whose `run_tiled` entry point
    /// reads it back via [`tiling`](DecompositionSession::tiling), shards
    /// oversized components into halo-expanded windows, drives them through
    /// this session's batch machinery (including any attached memo
    /// cache), and reconciles the per-tile colorings deterministically.
    pub fn set_tiling(&mut self, tiling: Option<TileConfig>) {
        self.tiling = tiling;
    }

    /// The requested tiling configuration, if any.
    pub fn tiling(&self) -> Option<&TileConfig> {
        self.tiling.as_ref()
    }

    /// Attaches (or, with `None`, detaches) cell-instance provenance for
    /// the layout submitted under `id`.
    ///
    /// The session itself never decomposes hierarchically:
    /// [`run`](DecompositionSession::run) always works on the flat plan.
    /// The attachment stored here is the contract between the front ends
    /// and the `mpl-hier` crate, whose `run_hier` entry point reads it back
    /// via [`hierarchy`](DecompositionSession::hierarchy), colors each
    /// distinct cell body once through this session's batch machinery
    /// (including any attached memo cache), and reconciles only the
    /// inter-instance boundary geometry.
    ///
    /// Layouts without an attachment — text fixtures, circuits, flattened
    /// GDS — simply have no provenance and decompose flat.
    pub fn set_hierarchy(&mut self, id: LayoutId, hierarchy: Option<Arc<LayoutHierarchy>>) {
        match hierarchy {
            Some(hierarchy) => {
                self.hierarchies.insert(id.index(), hierarchy);
            }
            None => {
                self.hierarchies.remove(&id.index());
            }
        }
    }

    /// The cell-instance provenance attached to `id`, if any.
    pub fn hierarchy(&self, id: LayoutId) -> Option<&Arc<LayoutHierarchy>> {
        self.hierarchies.get(&id.index())
    }

    /// Attaches (or, with `None`, detaches) a cancel token for the layout
    /// submitted under `id`.
    ///
    /// While the batch runs, every component task of that layout carries
    /// the token: engines poll its shared flag on their amortised clock
    /// checks (stopping mid-search with the incumbent found so far) and
    /// tasks that have not started yet are skipped outright, producing
    /// placeholder [`ComponentStats`] with
    /// [`skipped`](ComponentStats::skipped) set.  The assembled
    /// [`DecompositionResult`] reports the damage through
    /// [`cancelled`](DecompositionResult::cancelled),
    /// [`deadline_exceeded`](DecompositionResult::deadline_exceeded),
    /// [`components_completed`](DecompositionResult::components_completed)
    /// and [`components_skipped`](DecompositionResult::components_skipped).
    pub fn set_cancel(&mut self, id: LayoutId, token: Option<crate::CancelToken>) {
        match token {
            Some(token) => {
                self.cancels.insert(id.index(), token);
            }
            None => {
                self.cancels.remove(&id.index());
            }
        }
    }

    /// The cancel token attached to `id`, if any.
    pub fn cancel_token(&self, id: LayoutId) -> Option<&crate::CancelToken> {
        self.cancels.get(&id.index())
    }

    /// Enqueues an already-built plan, returning the id its tasks and
    /// results will be tagged with.
    pub fn submit(&mut self, plan: DecompositionPlan) -> LayoutId {
        let id = LayoutId(self.base + self.plans.len());
        self.plans.push(plan);
        id
    }

    /// Retires the current batch so the session can be reused for the next
    /// one: submitted plans are dropped, but the id counter keeps running,
    /// so ids stay unique across every batch the session ever ran.
    ///
    /// A streaming service drains submissions in waves — submit whatever is
    /// pending, [`run`](DecompositionSession::run), report, `clear`, repeat
    /// — and needs the ids it handed out for wave N to never collide with
    /// wave N+1.
    ///
    /// ```
    /// use mpl_core::{ColorAlgorithm, Decomposer, DecomposerConfig, DecompositionSession,
    ///                ThreadPoolExecutor};
    /// use mpl_layout::{gen, Technology};
    ///
    /// let tech = Technology::nm20();
    /// let decomposer = Decomposer::new(DecomposerConfig::quadruple(tech));
    /// let layout = gen::fig1_contact_clique(&tech);
    ///
    /// let mut session = DecompositionSession::new();
    /// let first = session.submit_layout(&decomposer, &layout)?;
    /// session.run(&ThreadPoolExecutor::default());
    /// session.clear();
    /// let second = session.submit_layout(&decomposer, &layout)?;
    /// assert_ne!(first, second);
    /// assert_eq!(second.index(), 1);
    /// assert!(session.plan(first).is_none()); // retired with its batch
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn clear(&mut self) {
        self.base += self.plans.len();
        self.plans.clear();
        self.hierarchies.retain(|&index, _| index >= self.base);
        self.cancels.retain(|&index, _| index >= self.base);
    }

    /// Total number of layouts ever submitted, including batches already
    /// retired by [`clear`](DecompositionSession::clear) (equals the index
    /// the next submission will receive).
    pub fn submitted_count(&self) -> usize {
        self.base + self.plans.len()
    }

    /// Plans `layout` with `decomposer` and enqueues the plan.
    ///
    /// Different submissions may use different decomposers (mixed K,
    /// engines or α within one batch are fine — each task carries its own
    /// configuration).
    ///
    /// # Errors
    ///
    /// Propagates the typed planning errors of [`Decomposer::plan`]; the
    /// session is left unchanged on error.
    pub fn submit_layout(
        &mut self,
        decomposer: &Decomposer,
        layout: &Layout,
    ) -> Result<LayoutId, DecomposeError> {
        Ok(self.submit(decomposer.plan(layout)?))
    }

    /// Number of layouts submitted so far.
    pub fn layout_count(&self) -> usize {
        self.plans.len()
    }

    /// Total number of component tasks across all submitted plans.
    pub fn task_count(&self) -> usize {
        self.plans.iter().map(|plan| plan.tasks().len()).sum()
    }

    /// Whether no layout has been submitted yet.
    pub fn is_empty(&self) -> bool {
        self.plans.is_empty()
    }

    /// The submitted plans of the current batch with their ids, in
    /// submission order.
    pub fn plans(&self) -> impl Iterator<Item = (LayoutId, &DecompositionPlan)> {
        let base = self.base;
        self.plans
            .iter()
            .enumerate()
            .map(move |(index, plan)| (LayoutId(base + index), plan))
    }

    /// The plan submitted under `id`, if it belongs to the current batch
    /// (plans of batches retired by [`clear`](DecompositionSession::clear)
    /// are gone).
    pub fn plan(&self, id: LayoutId) -> Option<&DecompositionPlan> {
        self.plans.get(id.index().checked_sub(self.base)?)
    }

    /// Executes the whole batch on `pool` and returns one result per
    /// layout, in submission order.
    ///
    /// Every layout's colors/conflicts/stitches are bit-identical to that
    /// layout's standalone one-thread run (see
    /// [`DecompositionPlan::execute`] for the wall-clock cut-off caveat
    /// shared by all schedules).
    pub fn run(&self, pool: &ThreadPoolExecutor) -> Vec<(LayoutId, DecompositionResult)> {
        self.run_observed(pool, &())
    }

    /// Executes the whole batch on `pool`, ticking `progress` once per
    /// finished component of each layout.
    pub fn run_observed(
        &self,
        pool: &ThreadPoolExecutor,
        progress: &dyn Progress,
    ) -> Vec<(LayoutId, DecompositionResult)> {
        let entries: Vec<(LayoutId, &DecompositionPlan)> = self.plans().collect();
        execute_batch(
            &entries,
            pool,
            progress,
            self.memo.as_deref(),
            Some(&self.cancels),
        )
    }
}

/// How one component task of a memoized batch gets its colors.
#[derive(Debug, PartialEq)]
enum Disposition {
    /// The cache already held the signature: live colors stamped from the
    /// stored canonical coloring, ready at collection time.
    Hit { colors: Vec<u8> },
    /// First occurrence of this signature: the worker that picks it up
    /// builds and colors the canonical problem; the collection step stores
    /// the result under the signature the prepass keyed this lead by.
    Lead { perm: Vec<usize> },
    /// An earlier task of this batch leads the same signature; stamped from
    /// the lead's canonical coloring at collection time.
    Follow {
        leader: (usize, usize),
        perm: Vec<usize>,
    },
}

/// Statistics for a component whose colors were stamped rather than
/// computed: real size and quality numbers, zero engine work.
fn stamped_stats(task: &ComponentTask, colors: &[u8]) -> ComponentStats {
    ComponentStats {
        memo_hit: Some(true),
        ..ComponentStats::default().evaluated(task.index(), task.problem(), colors)
    }
}

/// Statistics for a task skipped because its request's cancel token had
/// already stopped when the task was picked up: the all-zero placeholder
/// coloring, honestly evaluated, with the skip reason read off the token.
fn skipped_stats(
    task: &ComponentTask,
    token: &crate::CancelToken,
    colors: &[u8],
    memoized_batch: bool,
) -> ComponentStats {
    ComponentStats {
        cancelled: token.is_cancelled(),
        deadline_exceeded: token.deadline_exceeded(),
        skipped: true,
        memo_hit: memoized_batch.then_some(false),
        ..ComponentStats::default().evaluated(task.index(), task.problem(), colors)
    }
}

/// Each lead's signature keyed by its (slot, task), in that order.
type LeadSignatures = Vec<((usize, usize), Signature)>;

/// A lead component's canonical coloring plus its `(cancelled,
/// deadline_exceeded, skipped)` flags — what an in-batch follower inherits
/// when it stamps from that lead.
type LeadColoring = (Arc<Vec<u8>>, (bool, bool, bool));

/// The memo prepass of a batch: every task's disposition, per entry and in
/// task order, and each lead's signature keyed by its (slot, task), in that
/// order.
///
/// Each plan's tasks are canonicalized in `ranges(task vertices)`
/// contiguous ranges ([`canonicalize_tasks`]); the cache is then probed and
/// the leads chosen in the fixed (slot, task) order, so lead/follow
/// choices — and therefore the whole run — depend neither on the range
/// count nor on the pool's schedule. The prepass only canonicalizes:
/// each lead's canonical problem is built by the worker that colors it and
/// freed after the engine returns, so a batch never holds them all at once.
fn memo_prepass(
    entries: &[(LayoutId, &DecompositionPlan)],
    cache: &MemoCache,
    ranges: impl Fn(usize) -> usize,
) -> (Vec<Vec<Disposition>>, LeadSignatures) {
    let mut leads: HashMap<Signature, (usize, usize)> = HashMap::new();
    let dispositions = entries
        .iter()
        .enumerate()
        .map(|(slot, &(_, plan))| {
            let fingerprint = config_fingerprint(plan.config());
            canonicalize_tasks(plan, &fingerprint, &ranges)
                .into_iter()
                .zip(plan.tasks())
                .map(|(CanonicalComponent { signature, perm }, task)| {
                    if let Some(stored) = cache.lookup(&signature) {
                        return Disposition::Hit {
                            colors: mpl_memo::stamp(&stored, &perm),
                        };
                    }
                    match leads.entry(signature) {
                        Entry::Occupied(lead) => Disposition::Follow {
                            leader: *lead.get(),
                            perm,
                        },
                        Entry::Vacant(lead) => {
                            lead.insert((slot, task.index()));
                            Disposition::Lead { perm }
                        }
                    }
                })
                .collect()
        })
        .collect();
    // A worker finds its lead's signature here by binary search, and the
    // collection step moves each into the cache, so none is cloned.
    let mut lead_signatures: LeadSignatures = leads
        .into_iter()
        .map(|(signature, lead)| (lead, signature))
        .collect();
    lead_signatures.sort_unstable_by_key(|&(lead, _)| lead);
    (dispositions, lead_signatures)
}

/// The shared batch engine behind [`DecompositionSession::run_observed`]
/// and [`DecompositionPlan::execute`] (a one-entry batch).
///
/// Builds the largest-first global queue of tagged tasks, drains it on
/// `pool`, and assembles one [`DecompositionResult`] per entry, in entry
/// order.  The queue's sort is the one place the schedule is decided: the
/// pool drains batch positions in order.  Each entry's `LayoutId` must be
/// unique within the batch.  A large plan's memo prepass runs on every
/// available CPU ([`range_count`]).
pub(crate) fn execute_batch(
    entries: &[(LayoutId, &DecompositionPlan)],
    pool: &ThreadPoolExecutor,
    progress: &dyn Progress,
    memo: Option<&MemoCache>,
    cancels: Option<&HashMap<usize, crate::CancelToken>>,
) -> Vec<(LayoutId, DecompositionResult)> {
    execute_batch_in(entries, pool, progress, memo, cancels, range_count)
}

/// [`execute_batch`] with a plan of `n` task vertices canonicalized in
/// `ranges(n)` contiguous ranges.
fn execute_batch_in(
    entries: &[(LayoutId, &DecompositionPlan)],
    pool: &ThreadPoolExecutor,
    progress: &dyn Progress,
    memo: Option<&MemoCache>,
    cancels: Option<&HashMap<usize, crate::CancelToken>>,
    ranges: impl Fn(usize) -> usize,
) -> Vec<(LayoutId, DecompositionResult)> {
    let batch_start = Instant::now();
    let mut slots: HashMap<LayoutId, usize> = HashMap::with_capacity(entries.len());
    for (slot, &(id, _)) in entries.iter().enumerate() {
        let previous = slots.insert(id, slot);
        assert!(previous.is_none(), "duplicate {id} in one batch");
    }

    // Memo prepass: canonicalize every task and consult the cache *before*
    // anything is enqueued.
    let (mut dispositions, lead_signatures) =
        match memo.map(|cache| memo_prepass(entries, cache, ranges)) {
            Some((dispositions, lead_signatures)) => (Some(dispositions), lead_signatures),
            None => (None, Vec::new()),
        };

    // The shared global queue: every task of every plan, largest first.
    // Ties keep (submission, task) order so the schedule is deterministic;
    // the outcomes are schedule-independent anyway.  With a memo attached,
    // only lead tasks reach the pool: hits and followers are stamped at
    // collection time.
    let mut batch: Vec<BatchTask<'_>> = entries
        .iter()
        .flat_map(|&(id, plan)| {
            let cancel = cancels.and_then(|tokens| tokens.get(&id.index()));
            plan.tasks()
                .iter()
                .map(move |task| BatchTask::new(id, task).with_cancel(cancel))
        })
        .filter(|tagged| match &dispositions {
            None => true,
            Some(dispositions) => matches!(
                dispositions[slots[&tagged.layout()]][tagged.task().index()],
                Disposition::Lead { .. }
            ),
        })
        .collect();
    batch.sort_by_key(|tagged| {
        (
            std::cmp::Reverse(tagged.vertex_count()),
            slots[&tagged.layout()],
            tagged.task().index(),
        )
    });

    // One engine per entry, shared by every worker thread (engines are
    // `Sync` and stateless): the seed code boxed a fresh assigner for every
    // component task.
    let assigners: Vec<Box<dyn crate::assign::ColorAssigner>> = entries
        .iter()
        .map(|&(_, plan)| assigner_for(plan.config().algorithm, plan.config()))
        .collect();

    // One lock per layout over its finished-component count and the
    // instant the last one finished (a layout's color time in a batch runs
    // from batch start to that instant).  Each tick is counted and
    // delivered under the lock, so a layout's ticks arrive in order even
    // when workers finish its components concurrently; the instant is read
    // under it too, so a later holder always records a later instant.
    let tallies: Vec<Mutex<(usize, Option<Instant>)>> =
        entries.iter().map(|_| Mutex::default()).collect();
    let finish = |layout: LayoutId, slot: usize| {
        let mut tally = tallies[slot].lock().expect("no panics while counting");
        *tally = (tally.0 + 1, Some(Instant::now()));
        progress.done(layout, tally.0, entries[slot].1.tasks().len());
    };
    let work = |tagged: &BatchTask<'_>| -> ComponentOutcome {
        let slot = slots[&tagged.layout()];
        let plan = entries[slot].1;
        let task = tagged.task();
        let task_start = Instant::now();
        // A request already stopped (cancelled or past deadline) skips the
        // engine entirely: the task yields an all-zero placeholder coloring
        // with honest conflict counts, preserving one outcome per batch
        // task.
        if tagged.poll_cancel() {
            let token = tagged.cancel().expect("poll_cancel implies a token");
            let colors = vec![0u8; task.problem().vertex_count()];
            let stats = skipped_stats(task, token, &colors, dispositions.is_some());
            finish(tagged.layout(), slot);
            return ComponentOutcome { colors, stats };
        }
        // With a memo attached the engine colors the canonical problem (so
        // the stored coloring is a pure function of the signature) and the
        // result is stamped back through the permutation; without one it
        // colors the live problem directly.
        let (colors, work, memo_hit) = match &dispositions {
            None => {
                let (colors, work) = plan.decomposer().color_problem(
                    task.problem(),
                    assigners[slot].as_ref(),
                    tagged.cancel(),
                );
                (colors, work, None)
            }
            Some(dispositions) => match &dispositions[slot][task.index()] {
                Disposition::Lead { perm } => {
                    let at = lead_signatures
                        .binary_search_by_key(&(slot, task.index()), |&(lead, _)| lead)
                        .expect("every lead has its signature");
                    let problem = canonical_problem(&lead_signatures[at].1);
                    let (canonical_colors, work) = plan.decomposer().color_problem(
                        &problem,
                        assigners[slot].as_ref(),
                        tagged.cancel(),
                    );
                    (mpl_memo::stamp(&canonical_colors, perm), work, Some(false))
                }
                _ => unreachable!("only lead tasks enter the pool's batch"),
            },
        };
        // Classify an engine-observed stop through the token so the stats
        // carry the reason (poll promotes an expired deadline first).
        let (cancelled, deadline_exceeded) = match tagged.cancel() {
            Some(token) if work.cancelled => {
                token.poll();
                (token.is_cancelled(), token.deadline_exceeded())
            }
            _ => (false, false),
        };
        // Evaluated before the clock is read: `time` covers the evaluation.
        let evaluated = work.evaluated(task.index(), task.problem(), &colors);
        let stats = ComponentStats {
            time: task_start.elapsed(),
            cancelled,
            deadline_exceeded,
            memo_hit,
            ..evaluated
        };
        finish(tagged.layout(), slot);
        ComponentOutcome { colors, stats }
    };

    // One outcome per batch task, in batch order.
    let outcomes = pool.run(&batch, work);

    // Scatter the outcomes back to their layouts.
    let mut per_layout: Vec<Vec<(usize, ComponentOutcome)>> =
        (0..entries.len()).map(|_| Vec::new()).collect();
    for (tagged, outcome) in batch.iter().zip(outcomes) {
        per_layout[slots[&tagged.layout()]].push((tagged.task().index(), outcome));
    }
    for outcomes in &mut per_layout {
        outcomes.sort_by_key(|(index, _)| *index);
    }

    // Memo collection, step 1: store every lead's canonical coloring.  The
    // insertion order is (slot, task) order — deterministic whatever the
    // pool did — and followers always sit after their lead in that
    // order, so step 2 below finds every canonical coloring it needs.
    // Leads a cancel token touched (truncated mid-search or skipped) are
    // NOT inserted into the shared cache — a cache entry must always be the
    // engine's full-effort coloring — but their in-batch followers still
    // stamp from them, inheriting the lead's cancellation flags.
    let mut lead_canonical: HashMap<(usize, usize), LeadColoring> = HashMap::new();
    if let Some(dispositions) = &dispositions {
        let cache = memo.expect("dispositions imply an attached cache");
        // The pool's outcomes are exactly the leads, in (slot, task) order,
        // the order of `lead_signatures`.
        let outcomes = per_layout.iter().enumerate().flat_map(|(slot, outcomes)| {
            outcomes
                .iter()
                .map(move |(index, outcome)| ((slot, *index), outcome))
        });
        for ((lead, signature), (at, outcome)) in lead_signatures.into_iter().zip(outcomes) {
            assert_eq!(lead, at, "pool outcomes pair with their leads");
            let Disposition::Lead { perm } = &dispositions[lead.0][lead.1] else {
                unreachable!("only lead tasks have pool outcomes");
            };
            let canonical = mpl_memo::unstamp(&outcome.colors, perm);
            let stats = &outcome.stats;
            let flags = (stats.cancelled, stats.deadline_exceeded, stats.skipped);
            if flags == (false, false, false) {
                cache.insert(signature, canonical.clone());
            }
            lead_canonical.insert(lead, (Arc::new(canonical), flags));
        }
    }

    let mut results = Vec::with_capacity(entries.len());
    for ((slot, &(id, plan)), tally) in entries.iter().enumerate().zip(tallies) {
        let (mut done, finished_at) = tally.into_inner().expect("no panics while counting");
        let total = plan.tasks().len();
        let pool_outcomes = std::mem::take(&mut per_layout[slot]);
        // Memo collection, step 2: interleave the pool's lead outcomes
        // with stamped hit/follower outcomes, in task order, ticking the
        // stamped components after every lead of the layout.
        let outcomes: Vec<(usize, ComponentOutcome)> = match &mut dispositions {
            None => pool_outcomes,
            Some(dispositions) => {
                let mut merged = Vec::with_capacity(total);
                let mut from_pool = pool_outcomes.into_iter();
                for task in plan.tasks() {
                    match &mut dispositions[slot][task.index()] {
                        Disposition::Lead { .. } => {
                            let (index, outcome) =
                                from_pool.next().expect("every lead has a pool outcome");
                            assert_eq!(index, task.index());
                            merged.push((index, outcome));
                        }
                        Disposition::Hit { colors } => {
                            let colors = std::mem::take(colors);
                            let stats = stamped_stats(task, &colors);
                            done += 1;
                            progress.done(id, done, total);
                            merged.push((task.index(), ComponentOutcome { colors, stats }));
                        }
                        Disposition::Follow { leader, perm } => {
                            let (canonical, flags) = lead_canonical[leader].clone();
                            let colors = mpl_memo::stamp(&canonical, perm);
                            let mut stats = stamped_stats(task, &colors);
                            // A follower of a cancellation-touched lead
                            // carries the same incumbent/placeholder colors,
                            // so it inherits the lead's flags.
                            (stats.cancelled, stats.deadline_exceeded, stats.skipped) = flags;
                            done += 1;
                            progress.done(id, done, total);
                            merged.push((task.index(), ComponentOutcome { colors, stats }));
                        }
                    }
                }
                merged
            }
        };
        assert_eq!(outcomes.len(), total, "every task of {id} has an outcome");
        let mut colors = vec![0u8; plan.graph().vertex_count()];
        for ((_, outcome), task) in outcomes.iter().zip(plan.tasks()) {
            for (local, &global) in task.to_global().iter().enumerate() {
                colors[global] = outcome.colors[local];
            }
        }
        let color_time = finished_at
            .map(|instant| instant.duration_since(batch_start))
            .unwrap_or(Duration::ZERO);
        let cost = coloring_cost(plan.graph(), &colors, plan.config().alpha);
        let components = outcomes
            .into_iter()
            .map(|(_, outcome)| outcome.stats)
            .collect();
        let result = DecompositionResult::from_execution(
            plan,
            pool.name(),
            colors,
            cost,
            components,
            color_time,
        );
        results.push((id, result));
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ColorAlgorithm, DecomposerConfig};
    use mpl_layout::{gen, Technology};

    fn decomposer(algorithm: ColorAlgorithm) -> Decomposer {
        Decomposer::new(DecomposerConfig::quadruple(Technology::nm20()).with_algorithm(algorithm))
    }

    fn row_layout(name: &str, seed: u64) -> Layout {
        gen::generate_row_layout(
            &gen::RowLayoutConfig::small(name, seed),
            &Technology::nm20(),
        )
    }

    #[test]
    fn ids_are_sequential_and_results_come_back_in_submission_order() {
        let decomposer = decomposer(ColorAlgorithm::Linear);
        let mut session = DecompositionSession::new();
        let a = session
            .submit_layout(&decomposer, &row_layout("a", 3))
            .expect("valid config");
        let b = session
            .submit_layout(&decomposer, &row_layout("b", 7))
            .expect("valid config");
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(a.to_string(), "layout#0");
        assert_eq!(session.layout_count(), 2);
        assert!(session.task_count() >= 2);
        let results = session.run(&ThreadPoolExecutor::default());
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].0, a);
        assert_eq!(results[1].0, b);
        assert_eq!(results[0].1.layout_name(), "a");
        assert_eq!(results[1].1.layout_name(), "b");
    }

    #[test]
    fn batch_results_match_standalone_serial_runs() {
        let decomposer = decomposer(ColorAlgorithm::Linear);
        let layouts = [row_layout("x", 3), row_layout("y", 5), row_layout("z", 7)];
        let mut session = DecompositionSession::new();
        for layout in &layouts {
            session
                .submit_layout(&decomposer, layout)
                .expect("valid config");
        }
        let pool = ThreadPoolExecutor::new(4).expect("non-zero threads");
        let batch = session.run(&pool);
        for ((id, result), layout) in batch.iter().zip(&layouts) {
            let standalone = decomposer.decompose(layout).expect("valid config");
            assert_eq!(result.colors(), standalone.colors(), "{id}");
            assert_eq!(result.conflicts(), standalone.conflicts());
            assert_eq!(result.stitches(), standalone.stitches());
            assert_eq!(result.executor(), "threads:4");
        }
    }

    #[test]
    fn mixed_configurations_share_one_batch() {
        // Different K and engines per submission: each task carries its own
        // configuration through the shared queue.
        let quad = decomposer(ColorAlgorithm::Linear);
        let penta = Decomposer::new(
            DecomposerConfig::pentuple(Technology::nm20())
                .with_algorithm(ColorAlgorithm::SdpGreedy),
        );
        let layout = gen::k5_cluster_layout(&Technology::nm20());
        let mut session = DecompositionSession::new();
        session.submit_layout(&quad, &layout).expect("valid config");
        session
            .submit_layout(&penta, &layout)
            .expect("valid config");
        let results = session.run(&ThreadPoolExecutor::new(2).expect("non-zero threads"));
        assert_eq!(results[0].1.k(), 4);
        assert_eq!(results[1].1.k(), 5);
        assert_eq!(results[0].1.conflicts(), 1); // K5 needs five masks
        assert_eq!(results[1].1.conflicts(), 0);
    }

    #[test]
    fn hierarchy_attachments_follow_their_layout_ids() {
        let decomposer = decomposer(ColorAlgorithm::Linear);
        let layout = row_layout("h", 11);
        let hierarchy = Arc::new(LayoutHierarchy::default());

        let mut session = DecompositionSession::new();
        let first = session
            .submit_layout(&decomposer, &layout)
            .expect("valid config");
        assert!(session.hierarchy(first).is_none());
        session.set_hierarchy(first, Some(hierarchy.clone()));
        assert!(Arc::ptr_eq(
            session.hierarchy(first).expect("attached"),
            &hierarchy
        ));

        // Detach explicitly.
        session.set_hierarchy(first, None);
        assert!(session.hierarchy(first).is_none());
        session.set_hierarchy(first, Some(hierarchy.clone()));

        // Retiring the batch drops the attachment with its plan.
        session.clear();
        assert!(session.hierarchy(first).is_none());

        // New batches start clean and ids never collide with retired ones.
        let second = session
            .submit_layout(&decomposer, &layout)
            .expect("valid config");
        assert_ne!(first, second);
        assert!(session.hierarchy(second).is_none());
    }

    #[test]
    fn empty_sessions_and_empty_layouts_run_trivially() {
        let session = DecompositionSession::new();
        assert!(session.is_empty());
        assert!(session.run(&ThreadPoolExecutor::default()).is_empty());

        let decomposer = decomposer(ColorAlgorithm::Linear);
        let mut session = DecompositionSession::default();
        let id = session
            .submit_layout(&decomposer, &Layout::builder("empty").build())
            .expect("an empty layout is not an error");
        let results = session.run(&ThreadPoolExecutor::default());
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].0, id);
        assert_eq!(results[0].1.vertex_count(), 0);
        assert_eq!(results[0].1.color_time(), Duration::ZERO);
    }

    #[test]
    fn submit_errors_leave_the_session_unchanged() {
        let bad = Decomposer::new(
            DecomposerConfig::k_patterning(1, Technology::nm20())
                .with_algorithm(ColorAlgorithm::Linear),
        );
        let mut session = DecompositionSession::new();
        assert!(session.submit_layout(&bad, &row_layout("bad", 3)).is_err());
        assert!(session.is_empty());
    }

    /// Records every tick as `(layout index, done, total)`.
    #[derive(Default)]
    struct RecordingProgress {
        ticks: Mutex<Vec<(usize, usize, usize)>>,
    }

    impl Progress for RecordingProgress {
        fn done(&self, layout: LayoutId, done: usize, total: usize) {
            self.ticks
                .lock()
                .unwrap()
                .push((layout.index(), done, total));
        }
    }

    impl RecordingProgress {
        /// Asserts one tick per component of `session`, and that every
        /// layout's ticks ran `1..=total` in order.
        fn assert_in_order(self, session: &DecompositionSession) {
            let ticks = self.ticks.into_inner().unwrap();
            assert_eq!(ticks.len(), session.task_count());
            for (id, plan) in session.plans() {
                let total = plan.tasks().len();
                let mine: Vec<(usize, usize)> = ticks
                    .iter()
                    .filter(|&&(layout, _, _)| layout == id.index())
                    .map(|&(_, done, total)| (done, total))
                    .collect();
                let expected: Vec<(usize, usize)> = (1..=total).map(|done| (done, total)).collect();
                assert_eq!(mine, expected, "{id}");
            }
        }
    }

    #[test]
    fn progress_ticks_every_component_in_order_per_layout() {
        let decomposer = decomposer(ColorAlgorithm::Linear);
        let mut session = DecompositionSession::new();
        session
            .submit_layout(&decomposer, &row_layout("prog-a", 3))
            .expect("valid config");
        session
            .submit_layout(&decomposer, &row_layout("prog-b", 5))
            .expect("valid config");
        let progress = RecordingProgress::default();
        let results =
            session.run_observed(&ThreadPoolExecutor::new(4).expect("threads"), &progress);
        assert_eq!(results.len(), 2);
        progress.assert_in_order(&session);
    }

    #[test]
    fn clearing_a_session_keeps_ids_unique_across_batches() {
        let decomposer = decomposer(ColorAlgorithm::Linear);
        let mut session = DecompositionSession::new();
        let a = session
            .submit_layout(&decomposer, &row_layout("wave1-a", 3))
            .expect("valid config");
        let b = session
            .submit_layout(&decomposer, &row_layout("wave1-b", 5))
            .expect("valid config");
        let first_wave = session.run(&ThreadPoolExecutor::default());
        assert_eq!(first_wave.len(), 2);

        session.clear();
        assert!(session.is_empty());
        assert_eq!(session.layout_count(), 0);
        assert_eq!(session.submitted_count(), 2);
        assert!(session.plan(a).is_none());
        assert!(session.plan(b).is_none());
        assert!(session.run(&ThreadPoolExecutor::default()).is_empty());

        let c = session
            .submit_layout(&decomposer, &row_layout("wave2-c", 7))
            .expect("valid config");
        assert_eq!(c.index(), 2);
        assert_ne!(c, a);
        assert_ne!(c, b);
        assert_eq!(session.submitted_count(), 3);
        assert!(session.plan(c).is_some());
        assert_eq!(
            session.plans().map(|(id, _)| id).collect::<Vec<_>>(),
            vec![c]
        );

        let second_wave = session.run(&ThreadPoolExecutor::new(2).expect("threads"));
        assert_eq!(second_wave.len(), 1);
        assert_eq!(second_wave[0].0, c);
        let standalone = decomposer
            .decompose(&row_layout("wave2-c", 7))
            .expect("valid config");
        assert_eq!(second_wave[0].1.colors(), standalone.colors());
    }

    #[test]
    fn rerunning_a_session_is_deterministic() {
        let decomposer = decomposer(ColorAlgorithm::SdpBacktrack);
        let mut session = DecompositionSession::new();
        session
            .submit_layout(&decomposer, &row_layout("rerun", 9))
            .expect("valid config");
        let first = session.run(&ThreadPoolExecutor::default());
        let second = session.run(&ThreadPoolExecutor::new(3).expect("threads"));
        assert_eq!(first[0].1.colors(), second[0].1.colors());
    }

    #[test]
    fn warm_memo_runs_are_bit_identical_to_cold_runs_for_every_engine() {
        for algorithm in ColorAlgorithm::ALL {
            let decomposer = decomposer(algorithm);
            let mut session = DecompositionSession::new();
            session
                .submit_layout(&decomposer, &row_layout("memo", 9))
                .expect("valid config");
            let cache = Arc::new(MemoCache::new(1024));
            session.set_memo(Some(cache.clone()));
            assert!(session.memo().is_some());
            let tasks = session.task_count();

            let cold = session.run(&ThreadPoolExecutor::default());
            let warm = session.run(&ThreadPoolExecutor::new(3).expect("threads"));
            assert_eq!(cold[0].1.colors(), warm[0].1.colors(), "{algorithm}");
            assert_eq!(cold[0].1.conflicts(), warm[0].1.conflicts());
            assert_eq!(cold[0].1.stitches(), warm[0].1.stitches());

            // Cold: every component is a lead or an in-batch follower; warm:
            // every component is a cache hit.
            let cold_hits = cold[0].1.memo_hits().expect("memo attached");
            let cold_misses = cold[0].1.memo_misses().expect("memo attached");
            assert_eq!(cold_hits + cold_misses, tasks, "{algorithm}");
            assert!(cold_misses > 0, "{algorithm}");
            assert_eq!(warm[0].1.memo_hits(), Some(tasks), "{algorithm}");
            assert_eq!(warm[0].1.memo_misses(), Some(0), "{algorithm}");

            // Warm components report stamped stats: zero engine time.
            assert!(warm[0]
                .1
                .component_stats()
                .iter()
                .all(|s| s.memo_hit == Some(true) && s.time == Duration::ZERO));
            let stats = cache.stats();
            assert_eq!(stats.hits, tasks as u64, "{algorithm}");
            assert!(stats.entries <= tasks);
            assert!(stats.bytes > 0);
        }
    }

    #[test]
    fn a_pre_cancelled_request_skips_every_component() {
        let decomposer = decomposer(ColorAlgorithm::Ilp);
        let mut session = DecompositionSession::new();
        let id = session
            .submit_layout(&decomposer, &row_layout("cancelled", 3))
            .expect("valid config");
        let token = crate::CancelToken::new();
        token.cancel();
        session.set_cancel(id, Some(token));

        let results = session.run(&ThreadPoolExecutor::default());
        let result = &results[0].1;
        assert!(result.cancelled());
        assert!(!result.deadline_exceeded());
        assert_eq!(result.components_completed(), 0);
        assert_eq!(result.components_skipped(), result.component_count());
        assert!(result.component_count() > 0);
        // Placeholders: all-zero colors, zero engine work, honest evaluation.
        assert!(result.colors().iter().all(|&c| c == 0));
        assert!(result
            .component_stats()
            .iter()
            .all(|s| s.skipped && s.cancelled && s.bnb_nodes == 0 && s.time == Duration::ZERO));

        // Detaching the token restores the full run, bit-identical to a
        // never-cancelled session.
        session.set_cancel(id, None);
        let full = session.run(&ThreadPoolExecutor::default());
        let standalone = decomposer
            .decompose(&row_layout("cancelled", 3))
            .expect("valid config");
        assert_eq!(full[0].1.colors(), standalone.colors());
        assert!(!full[0].1.cancelled());
        assert_eq!(full[0].1.components_skipped(), 0);
    }

    #[test]
    fn an_expired_deadline_reports_deadline_exceeded_not_cancelled() {
        let decomposer = decomposer(ColorAlgorithm::Linear);
        let mut session = DecompositionSession::new();
        let id = session
            .submit_layout(&decomposer, &row_layout("late", 5))
            .expect("valid config");
        session.set_cancel(
            id,
            Some(crate::CancelToken::with_deadline(
                Instant::now() - Duration::from_millis(1),
            )),
        );
        let results = session.run(&ThreadPoolExecutor::new(2).expect("threads"));
        let result = &results[0].1;
        assert!(result.deadline_exceeded());
        assert!(!result.cancelled());
        assert_eq!(result.components_skipped(), result.component_count());
        assert!(session
            .cancel_token(id)
            .expect("attached")
            .deadline_exceeded());
    }

    #[test]
    fn an_unfired_token_leaves_the_run_bit_identical() {
        for algorithm in ColorAlgorithm::ALL {
            let decomposer = decomposer(algorithm);
            let mut session = DecompositionSession::new();
            let id = session
                .submit_layout(&decomposer, &row_layout("quiet", 7))
                .expect("valid config");
            let bare = session.run(&ThreadPoolExecutor::default());
            session.set_cancel(
                id,
                Some(crate::CancelToken::after(Duration::from_secs(3600))),
            );
            let tokened = session.run(&ThreadPoolExecutor::default());
            assert_eq!(bare[0].1.colors(), tokened[0].1.colors(), "{algorithm}");
            // Wall-clock (and scratch-warmth) fields vary run to run;
            // every deterministic counter must be untouched by the token.
            for (a, b) in bare[0]
                .1
                .component_stats()
                .iter()
                .zip(tokened[0].1.component_stats())
            {
                assert_eq!(a.conflicts, b.conflicts, "{algorithm}");
                assert_eq!(a.stitches, b.stitches, "{algorithm}");
                assert_eq!(a.bnb_nodes, b.bnb_nodes, "{algorithm}");
                assert_eq!(a.hit_time_limit, b.hit_time_limit, "{algorithm}");
                assert_eq!(a.bound_improvements, b.bound_improvements, "{algorithm}");
                assert_eq!(a.augmenting_paths, b.augmenting_paths, "{algorithm}");
                assert_eq!(a.arc_scans, b.arc_scans, "{algorithm}");
                assert!(
                    !b.cancelled && !b.deadline_exceeded && !b.skipped,
                    "{algorithm}"
                );
            }
            assert!(!tokened[0].1.cancelled());
            assert!(!tokened[0].1.deadline_exceeded());
            assert_eq!(tokened[0].1.components_skipped(), 0);
        }
    }

    #[test]
    fn cancelled_leads_never_poison_the_memo_cache() {
        let decomposer = decomposer(ColorAlgorithm::Linear);
        let layout = row_layout("poison", 9);
        let cache = Arc::new(MemoCache::new(1024));
        let mut session = DecompositionSession::new().with_memo(cache.clone());
        let id = session
            .submit_layout(&decomposer, &layout)
            .expect("valid config");
        let token = crate::CancelToken::new();
        token.cancel();
        session.set_cancel(id, Some(token));

        let skipped = session.run(&ThreadPoolExecutor::default());
        assert_eq!(
            skipped[0].1.components_skipped(),
            skipped[0].1.component_count()
        );
        // Nothing of the placeholder run made it into the shared cache...
        assert_eq!(cache.stats().entries, 0);

        // ...so the subsequent uncancelled run colors everything for real.
        session.set_cancel(id, None);
        let real = session.run(&ThreadPoolExecutor::default());
        let standalone = {
            let mut other = DecompositionSession::new().with_memo(Arc::new(MemoCache::new(1024)));
            other
                .submit_layout(&decomposer, &layout)
                .expect("valid config");
            other.run(&ThreadPoolExecutor::default())
        };
        assert_eq!(real[0].1.colors(), standalone[0].1.colors());
        assert!(!real[0].1.cancelled());
        assert!(cache.stats().entries > 0);
    }

    #[test]
    fn clear_retires_cancel_tokens_with_their_batch() {
        let decomposer = decomposer(ColorAlgorithm::Linear);
        let mut session = DecompositionSession::new();
        let id = session
            .submit_layout(&decomposer, &row_layout("retire", 3))
            .expect("valid config");
        session.set_cancel(id, Some(crate::CancelToken::new()));
        assert!(session.cancel_token(id).is_some());
        session.clear();
        assert!(session.cancel_token(id).is_none());
    }

    #[test]
    fn sessions_without_a_memo_report_no_memo_counters() {
        let decomposer = decomposer(ColorAlgorithm::Linear);
        let mut session = DecompositionSession::new();
        session
            .submit_layout(&decomposer, &row_layout("plain", 3))
            .expect("valid config");
        let results = session.run(&ThreadPoolExecutor::default());
        assert_eq!(results[0].1.memo_hits(), None);
        assert_eq!(results[0].1.memo_misses(), None);
        assert!(results[0]
            .1
            .component_stats()
            .iter()
            .all(|s| s.memo_hit.is_none()));
    }

    #[test]
    fn a_shared_cache_keeps_each_simplify_setting_to_its_own_coloring() {
        // Two K5 contact columns joined by one bridge: iterated
        // simplification cuts the bridge and rotates a side, the hide-only
        // setting colors the bridge as a block of its own, and the two
        // colorings differ.
        let mut builder = Layout::builder("bridged-k5s");
        for y in [0i64, 24, 48, 72, 96, 176, 200, 224, 248, 272] {
            builder.add_contact(
                mpl_geometry::Nm(0),
                mpl_geometry::Nm(y),
                mpl_geometry::Nm(20),
            );
        }
        let layout = builder.build();
        let decomposers = [true, false].map(|iterated_simplify| {
            Decomposer::new(
                DecomposerConfig::quadruple(Technology::nm20())
                    .with_algorithm(ColorAlgorithm::Linear)
                    .with_division(crate::DivisionConfig {
                        iterated_simplify,
                        ..crate::DivisionConfig::default()
                    }),
            )
        });
        let run = |decomposer: &Decomposer, cache: &Arc<MemoCache>| {
            let mut session = DecompositionSession::new().with_memo(Arc::clone(cache));
            session
                .submit_layout(decomposer, &layout)
                .expect("valid config");
            session.run(&ThreadPoolExecutor::default()).remove(0).1
        };
        let cold: Vec<Vec<u8>> = decomposers
            .iter()
            .map(|decomposer| {
                let cache = Arc::new(MemoCache::new(16));
                run(decomposer, &cache).colors().to_vec()
            })
            .collect();
        assert_ne!(cold[0], cold[1]);
        let shared = Arc::new(MemoCache::new(16));
        for (decomposer, expected) in decomposers.iter().zip(&cold) {
            let result = run(decomposer, &shared);
            assert_eq!(result.memo_hits(), Some(0));
            assert_eq!(result.colors(), expected.as_slice());
        }
    }

    #[test]
    fn translated_duplicate_layouts_are_stamped_from_in_batch_leads() {
        let decomposer = decomposer(ColorAlgorithm::Linear);
        let layout = row_layout("orig", 5);
        let mut builder = Layout::builder("moved");
        for shape in layout.shapes() {
            builder.add_polygon(
                shape
                    .polygon()
                    .translated(mpl_geometry::Nm(50_000), mpl_geometry::Nm(-70_000)),
            );
        }
        let translated = builder.build();

        let mut session = DecompositionSession::new().with_memo(Arc::new(MemoCache::new(1024)));
        session
            .submit_layout(&decomposer, &layout)
            .expect("valid config");
        session
            .submit_layout(&decomposer, &translated)
            .expect("valid config");
        let progress = RecordingProgress::default();
        let results = session.run_observed(&ThreadPoolExecutor::default(), &progress);

        // Every component of the translated copy shares a signature with a
        // layout-0 lead, so the whole second layout is stamped — and the
        // stamped coloring is the lead's coloring, carried by translation.
        let translated_result = &results[1].1;
        assert_eq!(
            translated_result.memo_hits(),
            Some(translated_result.component_count())
        );
        assert_eq!(results[0].1.colors(), translated_result.colors());
        assert_eq!(results[0].1.conflicts(), translated_result.conflicts());

        // Stamped components still tick.
        progress.assert_in_order(&session);
    }

    #[test]
    fn prepass_ranges_leave_dispositions_and_results_unchanged() {
        // Layout 0 is a row layout plus a translated copy listed after it,
        // so at three ranges the copy's tasks follow leads in an earlier
        // range; layout 1 repeats the row layout once more.
        let decomposer = decomposer(ColorAlgorithm::Linear);
        let base = row_layout("base", 5);
        let mut builder = Layout::builder("doubled");
        for shape in base.shapes() {
            builder.add_polygon(shape.polygon().clone());
        }
        for shape in base.shapes() {
            let moved = shape
                .polygon()
                .translated(mpl_geometry::Nm(1_000_000), mpl_geometry::Nm(0));
            builder.add_polygon(moved);
        }
        let doubled = builder.build();
        let mut session = DecompositionSession::new();
        for layout in [&doubled, &base] {
            session
                .submit_layout(&decomposer, layout)
                .expect("valid config");
        }
        let entries: Vec<(LayoutId, &DecompositionPlan)> = session.plans().collect();
        let tasks = entries[0].1.tasks().len();
        assert!(tasks >= 6, "{tasks} tasks");
        // Cold then warm, on a fresh cache: the prepass, then the run.
        let run = |ranges: fn(usize) -> usize| {
            let cache = MemoCache::new(4096);
            let mut runs = Vec::new();
            for _ in 0..2 {
                let prepass = memo_prepass(&entries, &cache, ranges);
                let results: Vec<_> = execute_batch_in(
                    &entries,
                    &ThreadPoolExecutor::default(),
                    &(),
                    Some(&cache),
                    None,
                    ranges,
                )
                .into_iter()
                .map(|(id, result)| {
                    let counts = (result.memo_hits(), result.memo_misses());
                    (id, result.colors().to_vec(), counts, result.conflicts())
                })
                .collect();
                runs.push((prepass, results));
            }
            runs
        };
        let (one, three) = (run(|_| 1), run(|_| 3));
        assert_eq!(one, three);
        let (dispositions, _) = &one[0].0;
        let followers_of_the_first_half = dispositions[0][tasks / 2..]
            .iter()
            .filter(|disposition| {
                matches!(disposition, Disposition::Follow { leader: (0, lead), .. } if *lead < tasks / 3)
            })
            .count();
        assert!(followers_of_the_first_half > 0);
        // Cold, layout 1 follows layout 0 throughout; warm, all are hits.
        let (cold, warm) = (&one[0].1, &one[1].1);
        assert!(cold[0].2 .0 > Some(0));
        assert_eq!(cold[1].2, (Some(entries[1].1.tasks().len()), Some(0)));
        assert_eq!(warm[0].2, (Some(tasks), Some(0)));
    }

    #[test]
    fn memo_progress_still_ticks_every_component_in_order() {
        let decomposer = decomposer(ColorAlgorithm::Linear);
        let mut session = DecompositionSession::new();
        session
            .submit_layout(&decomposer, &row_layout("memo-prog", 3))
            .expect("valid config");
        session.set_memo(Some(Arc::new(MemoCache::new(1024))));
        session.run(&ThreadPoolExecutor::default()); // warm the cache

        let progress = RecordingProgress::default();
        session.run_observed(&ThreadPoolExecutor::new(4).expect("threads"), &progress);
        progress.assert_in_order(&session);
    }
}
