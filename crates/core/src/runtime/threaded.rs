//! The threaded runtime: a fixed-size worker pool multiplexing all blocks.
//!
//! This back-end is the library's "production" executor on a multicore
//! machine. Earlier revisions mapped every block to its own OS thread and
//! shipped every iterate through unbounded channels; past a few hundred
//! blocks that collapses twice over — the machine drowns in oversubscribed
//! threads, and a fast producer floods a slow consumer's queue with stale
//! payloads the drain loop immediately overwrites, so memory grows without
//! bound. The executor now follows the asynchronous many-tasking recipe
//! instead:
//!
//! * **One run queue** — `RunConfig::num_workers` OS threads (default: the
//!   machine's available parallelism, never more than the block count)
//!   multiplex the `m` blocks as lightweight tasks. Ready blocks wait in a
//!   single FIFO queue behind one mutex; an idle worker parks on the
//!   queue's condition variable. Every push and every wait happen under
//!   that mutex, so no wakeup can be lost, and FIFO order lets every
//!   runnable block take its turn. A worker hands back the blocks its last
//!   slice woke and takes its next block in one critical section. Per-worker
//!   work-stealing deques were measured against this queue: they matched it
//!   on two or more workers, and on one worker their LIFO order re-ran a
//!   just-requeued block ahead of older work, costing more block updates
//!   and about twice the wall time. So the pool keeps the simpler queue.
//! * **Coalescing mailboxes** — block data travels through
//!   [`super::mailbox::CoalescingMailboxes`]: one newest-wins slot per
//!   dependency edge, so in-flight data storage is O(edges) regardless of how
//!   far any producer runs ahead. This is exactly the AIAC model's semantics
//!   ("the newest received values overwrite previous ones") enforced at the
//!   transport layer.
//! * **Control plane** — the paper's centralized halting procedure
//!   (Section 4.3): workers report local-convergence *state changes* over a
//!   channel to the coordinator on the main thread, and the coordinator
//!   broadcasts the stop order (here: a shared flag plus a re-enqueue of
//!   every block) once every block is locally converged. One confirmation
//!   round sits in between: when every block reports converged, the
//!   coordinator wakes every block and stops only after each has completed
//!   a slice begun after that moment with none deconverging. Without it, a
//!   block whose last report said converged could still be consuming fresh
//!   data that moves it, and the run would stop early with that data
//!   unapplied.
//!
//! The two execution modes keep their semantics:
//!
//! * **Synchronous mode (SISC)** — the pool runs barrier-separated
//!   supersteps: every block is iterated (a Jacobi sweep reading the previous
//!   iteration's values), the new iterates are exchanged through the
//!   mailboxes, and block 0's owner evaluates the true global residual. The
//!   iterates are bit-identical to the sequential sweep; the barrier idle
//!   time is exactly the white space of Figure 1.
//! * **Asynchronous mode (AIAC)** — blocks never wait: when a worker picks a
//!   block it drains the block's mailboxes, iterates on whatever data it has,
//!   publishes its new values and requeues itself, as in Figure 2. A locally
//!   converged block goes *dormant* instead of spinning and is woken by the
//!   next publish from one of its dependencies (or by the stop broadcast).

use crate::block::BlockState;
use crate::config::{ExecutionMode, RunConfig};
use crate::convergence::{GlobalDetector, LocalConvergence};
use crate::depgraph::DependencyGraph;
use crate::kernel::IterativeKernel;
use crate::message::Message;
use crate::report::{RunError, RunReport};
use crate::runtime::mailbox::{CoalescingMailboxes, MailboxStats};
// Atomics come from the sync facade so the bounded model checker can
// instrument them under `--cfg aiac_check` (enforced by `cargo xtask
// analyze`).
use crate::runtime::sync::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use aiac_linalg::norms::nan_max;
use aiac_obs::{Layer, TraceSnapshot, Tracer, TrackRecorder};
use std::collections::VecDeque;
use std::sync::mpsc::{self, Sender};
use std::sync::{Barrier, Condvar, Mutex, PoisonError};
use std::time::Instant;

/// What a worker tells the coordinator.
enum CoordEvent {
    /// A block's local convergence state changed.
    StateChange { block: usize, converged: bool },
    /// Every block completed a slice begun after confirmation round
    /// `round` opened.
    RoundComplete { round: u64 },
    /// A block finished (stop received or iteration limit reached).
    Finished,
}

/// Final per-block result, filled in when the block finishes.
struct BlockOutcome {
    values: Vec<f64>,
    iterations: u64,
    residual: f64,
    payload_clones: u64,
    bytes_copied: u64,
}

/// The run queue's state, all of it behind [`WorkPool::queue`].
struct RunQueue {
    /// Ready blocks in FIFO order; each appears at most once.
    blocks: VecDeque<usize>,
    /// Workers waiting on [`WorkPool::ready`].
    sleepers: usize,
    /// Set once every block has finished (or a worker panicked).
    closed: bool,
    /// Times a worker found the queue empty and parked.
    parks: u64,
}

/// The run queue blocks are scheduled on: one mutex-guarded FIFO and one
/// condition variable.
///
/// Each block is queued at most once (the `queued` bits), so the queue
/// never holds more than `num_blocks` entries and is allocated once at that
/// capacity. No wakeup can be lost: a worker checks the queue and registers
/// as a sleeper under the mutex, and every push takes the same mutex before
/// it reads the sleeper count.
struct WorkPool {
    queue: Mutex<RunQueue>,
    ready: Condvar,
    /// The at-most-once-queued bit per block. Set by [`WorkPool::claim`],
    /// cleared by the worker that pops the block (see [`WorkPool::next`]).
    queued: Vec<AtomicBool>,
}

impl WorkPool {
    fn new(num_blocks: usize) -> Self {
        Self {
            queue: Mutex::new(RunQueue {
                blocks: VecDeque::with_capacity(num_blocks),
                sleepers: 0,
                closed: false,
                parks: 0,
            }),
            ready: Condvar::new(),
            queued: (0..num_blocks).map(|_| AtomicBool::new(false)).collect(),
        }
    }

    /// Claims `block`'s queued bit. True means the caller now owes the
    /// queue this block (it hands it over on its next [`WorkPool::next`]);
    /// false means the block is queued already.
    fn claim(&self, block: usize) -> bool {
        // ord: SeqCst — queued-bit claim after the mailbox publish; pairs with the clear in next() so a racing publish either re-queues the block or is seen by its drain
        !self.queued[block].swap(true, Ordering::SeqCst)
    }

    /// Schedules every not-yet-queued block (the initial deal and the
    /// stop/drain broadcasts) and wakes every parked worker.
    fn enqueue_all(&self) {
        let mut queue = self.queue.lock().expect("run queue mutex poisoned");
        if queue.closed {
            return;
        }
        for block in 0..self.queued.len() {
            if self.claim(block) {
                queue.blocks.push_back(block);
            }
        }
        let wake = queue.sleepers > 0;
        drop(queue);
        if wake {
            self.ready.notify_all();
        }
    }

    /// Queues the blocks the caller claimed during its last slice (emptying
    /// `woken`), then blocks until a block is ready and returns it, or
    /// returns `None` once the pool is closed. Handing work back and taking
    /// the next block share one lock acquisition per slice. Every park is
    /// counted and traced.
    ///
    /// A worker that leaves blocks behind in the queue wakes one parked
    /// worker, which does the same in turn, so queued work never waits
    /// while a worker sleeps. The popped block's queued bit is cleared
    /// *before* the caller drains its mailboxes, so a publish that raced
    /// the pop either re-queues the block or its payload is picked up by
    /// the drain.
    fn next(&self, woken: &mut Vec<usize>, rec: &mut TrackRecorder) -> Option<usize> {
        let mut queue = self.queue.lock().expect("run queue mutex poisoned");
        queue.blocks.extend(woken.drain(..));
        loop {
            if queue.closed {
                return None;
            }
            if let Some(block) = queue.blocks.pop_front() {
                let wake = queue.sleepers > 0 && !queue.blocks.is_empty();
                drop(queue);
                if wake {
                    self.ready.notify_one();
                }
                // ord: SeqCst — queued-bit release ordered before the mailbox drain (pairs with claim())
                self.queued[block].store(false, Ordering::SeqCst);
                return Some(block);
            }
            queue.sleepers += 1;
            queue.parks += 1;
            rec.span_begin("park", 0);
            queue = self.ready.wait(queue).expect("run queue mutex poisoned");
            rec.span_end("park", 0);
            queue.sleepers -= 1;
        }
    }

    /// Shuts the pool down and releases every parked worker. Runs from
    /// [`PanicGuard`]'s drop too, so it must not panic: a poisoned lock is
    /// recovered, since every update leaves the queue valid.
    fn close(&self) {
        self.queue
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .closed = true;
        self.ready.notify_all();
    }

    /// Parks so far; read once the workers have joined.
    fn parks(&self) -> u64 {
        self.queue.lock().expect("run queue mutex poisoned").parks
    }
}

/// Closes the pool when a worker unwinds, so the remaining workers and
/// the coordinator are released instead of parking forever behind a panic.
struct PanicGuard<'a>(&'a WorkPool);

impl Drop for PanicGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.close();
        }
    }
}

/// Multi-threaded executor (fixed worker pool over all blocks).
#[derive(Debug, Clone, Default)]
pub struct ThreadedRuntime {
    _private: (),
}

impl ThreadedRuntime {
    /// Creates the runtime.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs the kernel with the requested mode and returns the report.
    ///
    /// # Panics
    /// Panics on an invalid configuration or if a worker exits without
    /// delivering its block results (see [`ThreadedRuntime::try_run`] for the
    /// non-panicking variant).
    pub fn run(&self, kernel: &dyn IterativeKernel, config: &RunConfig) -> RunReport {
        self.try_run(kernel, config)
            .unwrap_or_else(|err| panic!("ThreadedRuntime::run failed: {err}"))
    }

    /// Runs the kernel, reporting configuration and worker failures as a
    /// [`RunError`] instead of panicking.
    pub fn try_run(
        &self,
        kernel: &dyn IterativeKernel,
        config: &RunConfig,
    ) -> Result<RunReport, RunError> {
        self.try_run_traced(kernel, config)
            .map(|(report, _)| report)
    }

    /// Runs the kernel and also returns the trace snapshot recorded by the
    /// workers. Empty unless `config.tracing` enables recording.
    ///
    /// # Panics
    /// Panics on the same failures as [`ThreadedRuntime::run`].
    pub fn run_traced(
        &self,
        kernel: &dyn IterativeKernel,
        config: &RunConfig,
    ) -> (RunReport, TraceSnapshot) {
        self.try_run_traced(kernel, config)
            .unwrap_or_else(|err| panic!("ThreadedRuntime::run_traced failed: {err}"))
    }

    /// Runs the kernel, reporting failures as a [`RunError`] and returning
    /// the workers' trace snapshot alongside the report.
    pub fn try_run_traced(
        &self,
        kernel: &dyn IterativeKernel,
        config: &RunConfig,
    ) -> Result<(RunReport, TraceSnapshot), RunError> {
        config.try_validate()?;
        let tracer = Tracer::new(config.tracing);
        let report = match config.mode {
            ExecutionMode::Synchronous => self.run_synchronous(kernel, config, &tracer),
            ExecutionMode::Asynchronous => self.run_asynchronous(kernel, config, &tracer),
        }?;
        Ok((report, tracer.snapshot()))
    }

    fn run_synchronous(
        &self,
        kernel: &dyn IterativeKernel,
        config: &RunConfig,
        tracer: &Tracer,
    ) -> Result<RunReport, RunError> {
        let m = kernel.num_blocks();
        let graph = DependencyGraph::from_kernel(kernel);
        let started = Instant::now();
        let workers = config.effective_num_workers(m);

        let mailboxes = CoalescingMailboxes::new(&graph);
        let barrier = Barrier::new(workers);
        let residuals: Vec<AtomicU64> = (0..m).map(|_| AtomicU64::new(0)).collect();
        let stop = AtomicBool::new(false);
        let data_messages = AtomicU64::new(0);
        let data_bytes = AtomicU64::new(0);
        let results: Vec<Mutex<Option<BlockOutcome>>> = (0..m).map(|_| Mutex::new(None)).collect();
        // Static partition: worker `w` owns blocks `w, w + workers, …`.
        let mut owned: Vec<Vec<BlockState>> = (0..workers).map(|_| Vec::new()).collect();
        for state in BlockState::initial_states(kernel, &graph) {
            owned[state.id % workers].push(state);
        }

        std::thread::scope(|scope| {
            for (worker, states) in owned.into_iter().enumerate() {
                let graph = &graph;
                let mailboxes = &mailboxes;
                let barrier = &barrier;
                let residuals = &residuals;
                let stop = &stop;
                let data_messages = &data_messages;
                let data_bytes = &data_bytes;
                let results = &results;
                scope.spawn(move || {
                    sync_worker(
                        kernel,
                        config,
                        worker,
                        states,
                        graph,
                        mailboxes,
                        barrier,
                        residuals,
                        stop,
                        data_messages,
                        data_bytes,
                        results,
                        tracer,
                    );
                });
            }
        });

        // ord: SeqCst — read after every worker joined; kept SeqCst so the proof stays trivial
        let converged = stop.load(Ordering::SeqCst);
        finalize_report(
            kernel,
            ExecutionMode::Synchronous,
            "threaded sync",
            started,
            results
                .into_iter()
                .map(|r| r.into_inner().unwrap())
                .collect(),
            // ord: SeqCst — post-join counter snapshot
            data_messages.load(Ordering::SeqCst),
            0,
            // ord: SeqCst — post-join counter snapshot
            data_bytes.load(Ordering::SeqCst),
            converged,
            mailboxes.stats(),
            // The static partition never touches the run queue, so the
            // scheduler counters are structural zeros — which is what makes
            // them deterministic, gateable metrics for sync cells.
            0,
        )
    }

    fn run_asynchronous(
        &self,
        kernel: &dyn IterativeKernel,
        config: &RunConfig,
        tracer: &Tracer,
    ) -> Result<RunReport, RunError> {
        let m = kernel.num_blocks();
        let graph = DependencyGraph::from_kernel(kernel);
        let started = Instant::now();
        let workers = config.effective_num_workers(m);

        let pool = AsyncPool {
            kernel,
            config,
            graph: &graph,
            mailboxes: CoalescingMailboxes::new(&graph),
            sched: WorkPool::new(m),
            tasks: BlockState::initial_states(kernel, &graph)
                .into_iter()
                .map(|state| {
                    Mutex::new(AsyncTask {
                        state,
                        local: LocalConvergence::new(config.epsilon, config.convergence_streak),
                        acked: 0,
                        done: false,
                    })
                })
                .collect(),
            results: (0..m).map(|_| Mutex::new(None)).collect(),
            stop: AtomicBool::new(false),
            rounds: AtomicU64::new(0),
            drain: AtomicBool::new(false),
            finished_blocks: AtomicUsize::new(0),
            data_messages: AtomicU64::new(0),
            control_messages: AtomicU64::new(0),
            data_bytes: AtomicU64::new(0),
        };
        // Every block starts runnable ("only the first iteration begins at
        // the same time on all the processors").
        pool.sched.enqueue_all();

        let (coord_tx, coord_rx) = mpsc::channel::<CoordEvent>();
        let mut detector = GlobalDetector::new(m);

        std::thread::scope(|scope| {
            for worker in 0..workers {
                let pool = &pool;
                // copy: channel-handle clone (Sender), not payload data
                let coord_tx = coord_tx.clone();
                scope.spawn(move || {
                    let _guard = PanicGuard(&pool.sched);
                    // One allocation per worker *lifetime* for the track
                    // name; every event on the track uses static names
                    // (enforced by `cargo xtask analyze` R8).
                    let mut rec =
                        tracer.recorder(Layer::Runtime, format!("worker-{worker}"), worker as u64);
                    // Blocks this worker's slices claimed, handed to the
                    // queue on the next `next()`.
                    let mut woken = Vec::new();
                    while let Some(block) = pool.sched.next(&mut woken, &mut rec) {
                        pool.process(block, &mut woken, &coord_tx, &mut rec);
                    }
                });
            }
            drop(coord_tx);

            // The main thread plays the role of the paper's central node: it
            // gathers state messages and broadcasts the stop order.
            //
            // "Every block reports converged" is only a candidate: a block
            // whose last report said converged may be in the middle of a
            // slice that consumes fresh data and is about to deconverge it.
            // So the coordinator opens a confirmation round, wakes every
            // block, and stops only once each block has completed a slice
            // begun after the round opened with no block deconverging
            // meanwhile. Such a slice drains every value published before
            // the round, and its state report precedes `RoundComplete` on
            // the channel (see `AsyncPool::confirm`).
            let mut finished = 0usize;
            let mut round = 0u64;
            let mut open = false;
            while finished < m {
                match coord_rx.recv() {
                    Ok(CoordEvent::StateChange { block, converged }) => {
                        let all = detector.record(block, converged);
                        if !converged {
                            open = false;
                        } else if all && !open && !detector.is_decided() {
                            round += 1;
                            open = true;
                            // ord: SeqCst — round opening, ordered before the queued-bit claims of enqueue_all (pairs with the round read in process())
                            pool.rounds.store(round << 32, Ordering::SeqCst);
                            pool.sched.enqueue_all();
                        }
                    }
                    Ok(CoordEvent::RoundComplete { round: done }) if open && done == round => {
                        open = false;
                        detector.decide();
                        // ord: SeqCst — stop broadcast to all workers
                        pool.stop.store(true, Ordering::SeqCst);
                        // The stop broadcast: wake every parked worker and
                        // dormant block so each one observes the flag and
                        // finishes (the paper's halting procedure).
                        pool.sched.enqueue_all();
                    }
                    Ok(CoordEvent::RoundComplete { .. }) => {}
                    Ok(CoordEvent::Finished) => finished += 1,
                    Err(_) => break,
                }
            }
        });

        let stats = pool.mailboxes.stats();
        let parks = pool.sched.parks();
        finalize_report(
            kernel,
            ExecutionMode::Asynchronous,
            "threaded async",
            started,
            pool.results
                .into_iter()
                .map(|r| r.into_inner().unwrap())
                .collect(),
            // ord: SeqCst — post-join counter snapshot
            pool.data_messages.load(Ordering::SeqCst),
            // ord: SeqCst — post-join counter snapshot
            pool.control_messages.load(Ordering::SeqCst),
            // ord: SeqCst — post-join counter snapshot
            pool.data_bytes.load(Ordering::SeqCst),
            detector.is_decided(),
            stats,
            parks,
        )
    }
}

/// Per-block task of the asynchronous pool. The scheduler's
/// at-most-once-queued invariant means at most one worker processes a block
/// at any time, so the mutex is uncontended in practice.
struct AsyncTask {
    state: BlockState,
    local: LocalConvergence,
    /// The last confirmation round this block acknowledged.
    acked: u64,
    done: bool,
}

/// Everything the asynchronous pool's workers share.
struct AsyncPool<'a> {
    kernel: &'a dyn IterativeKernel,
    config: &'a RunConfig,
    graph: &'a DependencyGraph,
    mailboxes: CoalescingMailboxes,
    sched: WorkPool,
    tasks: Vec<Mutex<AsyncTask>>,
    results: Vec<Mutex<Option<BlockOutcome>>>,
    /// Global stop order from the coordinator.
    stop: AtomicBool,
    /// The coordinator's latest confirmation round (0: none opened yet) in
    /// the high 32 bits, and how many blocks have confirmed it in the low
    /// 32 bits.
    rounds: AtomicU64,
    /// Set when some block exhausts its iteration limit before global
    /// convergence: the stop order may now never come, so converged blocks
    /// must stop parking and run out their own limits (the per-thread
    /// semantics of the paper's implementations).
    drain: AtomicBool,
    finished_blocks: AtomicUsize,
    data_messages: AtomicU64,
    control_messages: AtomicU64,
    data_bytes: AtomicU64,
}

impl AsyncPool<'_> {
    /// Runs one scheduling slice of `block`: drain its mailboxes, iterate
    /// once, publish, and decide whether to requeue, go dormant or finish.
    /// Blocks to requeue (the dependants a publish woke, then `block`
    /// itself) are claimed into `woken`, in that order.
    fn process(
        &self,
        block: usize,
        woken: &mut Vec<usize>,
        coord_tx: &Sender<CoordEvent>,
        rec: &mut TrackRecorder,
    ) {
        let mut task = self.tasks[block].lock().unwrap();
        if task.done {
            return;
        }
        // Read before the drain: this slice confirms the round only if it
        // sees everything published before the round opened.
        // ord: SeqCst — round read after the queued-bit clear in next() (pairs with the round opening)
        let round = self.rounds.load(Ordering::SeqCst) >> 32;

        // Receive whatever has arrived (the newest version per edge, by
        // construction of the coalescing mailboxes).
        let mut fresh_data = false;
        self.mailboxes.take_for(block, |src, iteration, values| {
            fresh_data |= task.state.incorporate(src, iteration, values);
        });
        if fresh_data {
            rec.instant("take", block as u64);
        }

        let max_iter = self.config.max_iterations as u64;
        // ord: SeqCst — stop gate on the dispatch path
        if self.stop.load(Ordering::SeqCst) || task.state.iteration >= max_iter {
            self.finish(block, &mut task, coord_tx);
            return;
        }
        // A confirmation slice with nothing new to consume cannot change a
        // converged block's state: confirm the round and stay dormant.
        if round != task.acked
            && !fresh_data
            && task.local.is_converged()
            // ord: SeqCst — drain flag: a draining block must keep iterating, never park
            && !self.drain.load(Ordering::SeqCst)
        {
            task.acked = round;
            self.confirm(round, coord_tx);
            return;
        }

        // Disabled tracing makes both clock reads return 0 and the push a
        // no-op branch, so the hot path stays untimed.
        let iterate_start = rec.now_ns();
        let update_residual = task.state.iterate(self.kernel);
        let iterate_end = rec.now_ns();
        rec.span_complete("iterate", iterate_start, iterate_end, block as u64);
        // An update far below ε means the block sits at its local fixed
        // point for its current inputs: with a contracting kernel every
        // further iterate moves it geometrically less, so the total drift
        // the gate below can ever suppress is a vanishing fraction of ε.
        // Same criterion (and constant) as the simulated back-end's
        // redundant-update skip. An exact-zero test would not do: floating-
        // point endgames commonly settle into 1-ulp two-cycles that never
        // reach a bit-stable value.
        let at_fixed_point = update_residual < self.config.epsilon * 1e-3;

        // Local convergence is judged on the cumulative drift since the last
        // window anchor, so that a round of updates split over many cheap
        // iterations is not under-measured. Quiet iterations on stale data do
        // not advance the streak; reports go out only when the state changes.
        // An at-fixed-point update is the one exception: it is a genuine
        // converged observation even on stale inputs, and counting it lets a
        // block finish its streak after its dependencies have gone quiet —
        // without it, gating publishes below could starve the streak of
        // fresh data and stall global detection.
        let drift = self
            .kernel
            .residual_between(block, &task.state.values, task.state.anchor());
        if drift >= self.config.epsilon {
            task.state.reset_anchor();
        }
        let has_dependencies = !self.graph.in_neighbours(block).is_empty();
        if task
            .local
            .observe_gated(drift, fresh_data || !has_dependencies || at_fixed_point)
        {
            // ord: stat counter — control-message telemetry
            self.control_messages.fetch_add(1, Ordering::Relaxed);
            let converged = task.local.is_converged();
            rec.instant(
                if converged { "converge" } else { "deconverge" },
                block as u64,
            );
            let _ = coord_tx.send(CoordEvent::StateChange { block, converged });
        }

        // Publish the fresh values on every out-edge, waking the dependants.
        // An at-fixed-point update publishes nothing: the dependants already
        // hold values indistinguishable at the ε scale, and re-sending them
        // only re-enqueues the neighbourhood — two mutually dependent blocks
        // at a shared fixed point would otherwise re-excite each other
        // forever (a publish storm).
        let out_degree = self.graph.out_neighbours(block).len() as u64;
        if out_degree > 0 && !at_fixed_point {
            self.mailboxes
                .publish_from(block, task.state.iteration, &task.state.values, |dst| {
                    if self.sched.claim(dst) {
                        woken.push(dst);
                    }
                });
            rec.instant("publish", block as u64);
            // ord: stat counter — message-count telemetry
            self.data_messages.fetch_add(out_degree, Ordering::Relaxed);
            self.data_bytes.fetch_add(
                out_degree * Message::data_payload_bytes(task.state.values.len()),
                // ord: stat counter — byte-count telemetry
                Ordering::Relaxed,
            );
        }
        if round != task.acked {
            task.acked = round;
            self.confirm(round, coord_tx);
        }

        // ord: SeqCst — stop gate re-checked after the iterate
        if self.stop.load(Ordering::SeqCst) || task.state.iteration >= max_iter {
            self.finish(block, &mut task, coord_tx);
        // ord: SeqCst — drain flag decides requeue-at-fixed-point
        } else if task.local.is_converged() && !self.drain.load(Ordering::SeqCst) {
            // Dormant: stay off the run queue until a dependency publishes
            // fresh data or the stop/drain broadcast re-enqueues everything.
            // This replaces the old executor's yield_now busy-spin.
        } else {
            // Self-requeue at the back of the queue, behind every other
            // ready block.
            if self.sched.claim(block) {
                woken.push(block);
            }
        }
    }

    /// Counts one block's confirmation of `round`, unless a newer round has
    /// opened since; the block that completes the count tells the
    /// coordinator. Every confirming slice sent its state report before its
    /// increment, and the increments are read-modify-writes of one atomic,
    /// so all those reports precede `RoundComplete` on the channel.
    fn confirm(&self, round: u64, coord_tx: &Sender<CoordEvent>) {
        // ord: SeqCst — confirmation count read, retried by the CAS below
        let mut word = self.rounds.load(Ordering::SeqCst);
        while word >> 32 == round {
            match self.rounds.compare_exchange(
                word,
                word + 1,
                // ord: SeqCst — confirmation count; each increment follows this slice's state report (see above)
                Ordering::SeqCst,
                // ord: SeqCst — failed-CAS reload of the round word
                Ordering::SeqCst,
            ) {
                Ok(_) => {
                    if (word + 1) & u64::from(u32::MAX) == self.tasks.len() as u64 {
                        let _ = coord_tx.send(CoordEvent::RoundComplete { round });
                    }
                    return;
                }
                Err(now) => word = now,
            }
        }
    }

    /// Retires `block`: records its result, reports to the coordinator and
    /// closes the scheduler when it was the last one.
    fn finish(&self, block: usize, task: &mut AsyncTask, coord_tx: &Sender<CoordEvent>) {
        task.done = true;
        *self.results[block].lock().unwrap() = Some(BlockOutcome {
            // One copy per block at retirement, off the hot path (the shared
            // payload may still be referenced by the mailboxes).
            // copy: retirement snapshot — the block's values leave the runtime exactly once, at finish
            values: task.state.values.to_vec(),
            iterations: task.state.iteration,
            residual: task.state.residual,
            payload_clones: task.state.payload_clones,
            bytes_copied: task.state.bytes_copied,
        });
        // ord: SeqCst — stop gate before the convergence broadcast
        if !self.stop.load(Ordering::SeqCst) {
            // Iteration-limit exit before any stop order: global convergence
            // may never be decided now, so make sure no block parks forever.
            // ord: SeqCst — drain broadcast: every worker must observe it before its final laps
            self.drain.store(true, Ordering::SeqCst);
            self.sched.enqueue_all();
        }
        let _ = coord_tx.send(CoordEvent::Finished);
        // ord: SeqCst — finished-block count decides the single shutdown edge
        if self.finished_blocks.fetch_add(1, Ordering::SeqCst) + 1 == self.tasks.len() {
            self.sched.close();
        }
    }
}

/// One synchronous pool worker: owns the blocks `worker, worker + workers,
/// worker + 2·workers, …` and runs them through barrier-separated supersteps.
/// The static partition keeps every block's floating-point trajectory
/// identical to the sequential Jacobi sweep regardless of the pool size.
#[allow(clippy::too_many_arguments)]
fn sync_worker(
    kernel: &dyn IterativeKernel,
    config: &RunConfig,
    worker: usize,
    mut states: Vec<BlockState>,
    graph: &DependencyGraph,
    mailboxes: &CoalescingMailboxes,
    barrier: &Barrier,
    residuals: &[AtomicU64],
    stop: &AtomicBool,
    data_messages: &AtomicU64,
    data_bytes: &AtomicU64,
    results: &[Mutex<Option<BlockOutcome>>],
    tracer: &Tracer,
) {
    let mut rec = tracer.recorder(Layer::Runtime, format!("worker-{worker}"), worker as u64);
    let max_iter = config.max_iterations as u64;
    let mut iterations = 0u64;

    while iterations < max_iter {
        // Compute + exchange phase: iterate every owned block (reading the
        // dependency values delivered for the previous iteration — a Jacobi
        // sweep) and publish the new iterates to the dependants' mailboxes.
        for state in states.iter_mut() {
            let iterate_start = rec.now_ns();
            let residual = state.iterate(kernel);
            let iterate_end = rec.now_ns();
            rec.span_complete("iterate", iterate_start, iterate_end, state.id as u64);
            // ord: SeqCst — residual publication for the coordinator's convergence scan
            residuals[state.id].store(residual.to_bits(), Ordering::SeqCst);
            let out_degree = graph.out_neighbours(state.id).len() as u64;
            if out_degree > 0 {
                mailboxes.publish_from(state.id, state.iteration, &state.values, |_| {});
                rec.instant("publish", state.id as u64);
                // ord: stat counter — message-count telemetry
                data_messages.fetch_add(out_degree, Ordering::Relaxed);
                data_bytes.fetch_add(
                    out_degree * Message::data_payload_bytes(state.values.len()),
                    // ord: stat counter — byte-count telemetry
                    Ordering::Relaxed,
                );
            }
        }
        iterations += 1;
        // Barrier A: all publishes of this iteration are visible.
        rec.span_begin("barrier", iterations);
        barrier.wait();
        rec.span_end("barrier", iterations);
        // Delivery phase: incorporate everything received for this iteration.
        for state in states.iter_mut() {
            mailboxes.take_for(state.id, |src, iteration, values| {
                state.incorporate(src, iteration, values);
            });
            rec.instant("take", state.id as u64);
        }
        // The first worker evaluates the global stopping criterion (the
        // synchronous algorithm checks the true global residual).
        if worker == 0 {
            let worst = residuals
                .iter()
                // ord: SeqCst — convergence scan of the published residuals
                .map(|r| f64::from_bits(r.load(Ordering::SeqCst)))
                .fold(0.0f64, nan_max);
            if worst < config.epsilon {
                // ord: SeqCst — stop broadcast on global convergence
                stop.store(true, Ordering::SeqCst);
            }
        }
        // Barrier B: everyone sees the decision for this iteration.
        barrier.wait();
        // ord: SeqCst — stop gate for the superstep loop
        if stop.load(Ordering::SeqCst) {
            break;
        }
    }

    for state in states {
        *results[state.id].lock().unwrap() = Some(BlockOutcome {
            iterations: state.iteration,
            residual: state.residual,
            payload_clones: state.payload_clones,
            bytes_copied: state.bytes_copied,
            // copy: retirement snapshot — sync-mode values leave the runtime at finish
            values: state.values.to_vec(),
        });
    }
}

#[allow(clippy::too_many_arguments)]
fn finalize_report(
    kernel: &dyn IterativeKernel,
    mode: ExecutionMode,
    backend: &str,
    started: Instant,
    outcomes: Vec<Option<BlockOutcome>>,
    data_messages: u64,
    control_messages: u64,
    data_bytes: u64,
    converged: bool,
    mailbox_stats: MailboxStats,
    queue_wait_events: u64,
) -> Result<RunReport, RunError> {
    let m = kernel.num_blocks();
    let missing: Vec<usize> = outcomes
        .iter()
        .enumerate()
        .filter_map(|(block, r)| r.is_none().then_some(block))
        .collect();
    if outcomes.len() != m || !missing.is_empty() {
        return Err(RunError::MissingResults { missing });
    }
    let mut values = Vec::with_capacity(m);
    let mut iterations = Vec::with_capacity(m);
    let mut final_residual = 0.0f64;
    let mut payload_clones = 0u64;
    let mut bytes_copied = 0u64;
    for outcome in outcomes.into_iter().flatten() {
        final_residual = nan_max(final_residual, outcome.residual);
        iterations.push(outcome.iterations);
        payload_clones += outcome.payload_clones;
        bytes_copied += outcome.bytes_copied;
        values.push(outcome.values);
    }
    Ok(RunReport {
        mode,
        backend: backend.to_string(),
        elapsed_secs: started.elapsed().as_secs_f64(),
        iterations,
        data_messages,
        control_messages,
        data_bytes,
        coalesced_messages: mailbox_stats.coalesced,
        peak_mailbox_occupancy: mailbox_stats.peak_occupancy,
        payload_clones,
        bytes_copied,
        // The run queue has no deques to steal from or push onto locally;
        // these stay as structural zeros for the report's consumers.
        steals: 0,
        failed_steal_attempts: 0,
        local_pushes: 0,
        queue_wait_events,
        cpu_queue_secs: 0.0,
        converged,
        premature_stop: false,
        solution: kernel.assemble(&values),
        final_residual,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ConfigError;
    use crate::kernel::test_kernels::{Diverging, DivergingCoupled, RingContraction};
    use crate::runtime::sequential::SequentialRuntime;

    #[test]
    fn synchronous_threaded_matches_sequential_exactly() {
        let kernel = RingContraction::new(4);
        let config = RunConfig::synchronous(1e-10);
        let seq = SequentialRuntime::new().run(&kernel, &config);
        let par = ThreadedRuntime::new().run(&kernel, &config);
        assert!(par.converged);
        assert_eq!(par.iterations[0], seq.iterations[0]);
        for (a, b) in par.solution.iter().zip(&seq.solution) {
            assert_eq!(a, b, "synchronous iterates must be identical");
        }
    }

    #[test]
    fn synchronous_pool_is_bit_identical_for_every_pool_size() {
        let kernel = RingContraction::new(6);
        let seq = SequentialRuntime::new().run(&kernel, &RunConfig::synchronous(1e-10));
        for workers in 1..=6 {
            let config = RunConfig::synchronous(1e-10).with_num_workers(workers);
            let par = ThreadedRuntime::new().run(&kernel, &config);
            assert!(par.converged, "{workers} workers");
            assert_eq!(par.iterations, seq.iterations, "{workers} workers");
            for (a, b) in par.solution.iter().zip(&seq.solution) {
                assert_eq!(a, b, "{workers} workers: iterates must be identical");
            }
        }
    }

    #[test]
    fn asynchronous_threaded_converges_to_the_fixed_point() {
        let kernel = RingContraction::new(6);
        let config = RunConfig::asynchronous(1e-10).with_streak(5);
        let report = ThreadedRuntime::new().run(&kernel, &config);
        assert!(
            report.converged,
            "AIAC run should detect global convergence"
        );
        let fp = kernel.fixed_point();
        for v in &report.solution {
            assert!((v - fp).abs() < 1e-6, "value {v} vs fixed point {fp}");
        }
        assert!(report.data_messages > 0);
        assert!(report.control_messages > 0);
    }

    #[test]
    fn asynchronous_workers_may_run_different_iteration_counts() {
        let kernel = RingContraction::new(4);
        let config = RunConfig::asynchronous(1e-12);
        let report = ThreadedRuntime::new().run(&kernel, &config);
        assert_eq!(report.iterations.len(), 4);
        assert!(report.iterations.iter().all(|&i| i > 0));
    }

    #[test]
    fn pool_smaller_than_the_block_count_still_converges() {
        // 12 blocks over at most 2 workers: the old executor would have
        // spawned 12 threads; the pool must multiplex without deadlocking.
        let kernel = RingContraction::new(12);
        let config = RunConfig::asynchronous(1e-10)
            .with_streak(4)
            .with_num_workers(2);
        let report = ThreadedRuntime::new().run(&kernel, &config);
        assert!(report.converged);
        let fp = kernel.fixed_point();
        for v in &report.solution {
            assert!((v - fp).abs() < 1e-6, "value {v} vs fixed point {fp}");
        }
    }

    #[test]
    fn in_flight_data_is_bounded_by_the_edge_count() {
        let kernel = RingContraction::new(8);
        let graph = DependencyGraph::from_kernel(&kernel);
        for config in [
            RunConfig::synchronous(1e-8).with_num_workers(3),
            RunConfig::asynchronous(1e-8).with_num_workers(3),
        ] {
            let report = ThreadedRuntime::new().run(&kernel, &config);
            assert!(
                report.peak_mailbox_occupancy <= graph.num_edges() as u64,
                "{:?}: peak {} must stay under the edge count {}",
                config.mode,
                report.peak_mailbox_occupancy,
                graph.num_edges()
            );
        }
    }

    #[test]
    fn diverging_problem_hits_the_iteration_limit_in_both_modes() {
        let kernel = Diverging { blocks: 3 };
        for config in [
            RunConfig::synchronous(1e-10).with_max_iterations(50),
            RunConfig::asynchronous(1e-10).with_max_iterations(50),
        ] {
            let report = ThreadedRuntime::new().run(&kernel, &config);
            assert!(!report.converged, "{:?} must not converge", config.mode);
            assert!(report.iterations.iter().all(|&i| i <= 50));
        }
    }

    #[test]
    fn an_overflowed_iterate_is_not_reported_as_converged() {
        let kernel = DivergingCoupled { blocks: 2 };
        for config in [
            RunConfig::synchronous(1e-6).with_max_iterations(2_000),
            RunConfig::asynchronous(1e-6).with_max_iterations(2_000),
        ] {
            let report = ThreadedRuntime::new().run(&kernel, &config);
            assert!(
                !report.converged,
                "{:?}: x <- 2x + y overflowed yet converged",
                config.mode
            );
        }
    }

    #[test]
    fn single_block_async_run_works() {
        let kernel = RingContraction::new(1);
        let report = ThreadedRuntime::new().run(&kernel, &RunConfig::asynchronous(1e-10));
        assert!(report.converged);
        assert!((report.solution[0] - kernel.fixed_point()).abs() < 1e-6);
    }

    #[test]
    fn sync_mode_counts_messages_along_ring_edges() {
        let kernel = RingContraction::new(5);
        let config = RunConfig::synchronous(1e-8);
        let report = ThreadedRuntime::new().run(&kernel, &config);
        // 2 out-neighbours per block, 5 blocks, one message per edge per iteration
        assert_eq!(
            report.data_messages,
            10 * report.iterations[0],
            "each iteration sends one message per directed edge"
        );
    }

    #[test]
    fn native_in_place_kernel_runs_zero_copy_in_both_modes() {
        // RingContraction overrides `update_block_into`, so the data plane
        // must never fall back to the copying path: payloads travel only by
        // Arc refcount through the mailboxes and dependency views.
        let kernel = RingContraction::new(6);
        for config in [
            RunConfig::synchronous(1e-10).with_num_workers(3),
            RunConfig::asynchronous(1e-10)
                .with_streak(4)
                .with_num_workers(3),
        ] {
            let report = ThreadedRuntime::new().run(&kernel, &config);
            assert_eq!(report.payload_clones, 0, "{:?}", config.mode);
            assert_eq!(report.bytes_copied, 0, "{:?}", config.mode);
        }
    }

    #[test]
    fn try_run_reports_invalid_configurations() {
        let kernel = RingContraction::new(2);
        let bad = RunConfig::asynchronous(1e-8).with_num_workers(0);
        let err = ThreadedRuntime::new().try_run(&kernel, &bad).unwrap_err();
        assert_eq!(err, RunError::InvalidConfig(ConfigError::ZeroWorkers));
    }

    #[test]
    fn finalize_report_names_the_blocks_without_results() {
        // Regression test: a worker dying used to surface as a bare
        // `assert_eq!(collected, m)` with no hint of what was lost.
        let kernel = RingContraction::new(4);
        let outcome = |v: f64| {
            Some(BlockOutcome {
                values: vec![v],
                iterations: 1,
                residual: 0.0,
                payload_clones: 0,
                bytes_copied: 0,
            })
        };
        let err = finalize_report(
            &kernel,
            ExecutionMode::Asynchronous,
            "threaded async",
            Instant::now(),
            vec![outcome(0.0), None, outcome(2.0), None],
            0,
            0,
            0,
            false,
            MailboxStats::default(),
            0,
        )
        .unwrap_err();
        assert_eq!(
            err,
            RunError::MissingResults {
                missing: vec![1, 3]
            }
        );
        assert!(err.to_string().contains("[1, 3]"), "{err}");
    }

    #[test]
    fn async_pool_converges_with_structurally_zero_steal_counters() {
        let kernel = RingContraction::new(8);
        let config = RunConfig::asynchronous(1e-10)
            .with_streak(4)
            .with_num_workers(3);
        let report = ThreadedRuntime::new().run(&kernel, &config);
        assert!(report.converged);
        let fp = kernel.fixed_point();
        for v in &report.solution {
            assert!((v - fp).abs() < 1e-6, "value {v} vs fixed point {fp}");
        }
        // One shared queue: there is no deque to steal from or push onto.
        assert_eq!(report.steals, 0);
        assert_eq!(report.failed_steal_attempts, 0);
        assert_eq!(report.local_pushes, 0);
    }

    #[test]
    fn synchronous_mode_reports_structurally_zero_scheduler_counters() {
        let kernel = RingContraction::new(6);
        let config = RunConfig::synchronous(1e-10).with_num_workers(3);
        let report = ThreadedRuntime::new().run(&kernel, &config);
        assert!(report.converged);
        assert_eq!(
            (
                report.steals,
                report.failed_steal_attempts,
                report.local_pushes,
                report.queue_wait_events
            ),
            (0, 0, 0, 0),
            "the static sync partition must never touch the run queue"
        );
    }

    #[test]
    fn iteration_limited_single_worker_run_with_many_blocks_terminates_promptly() {
        // Regression test for the stop-broadcast audit: a 1-worker pool over
        // 64 blocks takes the drain path (iteration limit, no stop order).
        // With a timeout-sleep-based park this hung or crawled; parking on
        // the run queue's condition variable, the drain broadcast must
        // release the run at once.
        let kernel = Diverging { blocks: 64 };
        let config = RunConfig::asynchronous(1e-12)
            .with_max_iterations(5)
            .with_num_workers(1);
        let started = std::time::Instant::now();
        let report = ThreadedRuntime::new().run(&kernel, &config);
        assert!(!report.converged);
        assert_eq!(report.iterations.len(), 64);
        assert!(report.iterations.iter().all(|&i| i <= 5));
        assert!(
            started.elapsed().as_secs() < 30,
            "a cancelled 64-block run must terminate promptly, took {:?}",
            started.elapsed()
        );
    }

    /// Blocks 0 and 1 iterate `x0 ← x1/2 + 1` and `x1 ← x0/2 + 1` (fixed
    /// point 2, 2); block 2 is `x2 ← 1` with no dependencies. Two updates
    /// wait for another block's progress, forcing the interleaving in which
    /// stopping at the first all-converged report is premature:
    /// 1. block 1's first update waits for block 0's fifth, so block 0
    ///    converges on the initial data (one moving and four quiet
    ///    updates) and reports it;
    /// 2. block 0's sixth update, which takes block 1's first value, waits
    ///    for block 1's sixth. Block 1 converges on stale data after its
    ///    fifth and reports it while block 0, still reported converged,
    ///    holds a value that will move it by 0.75. A sound stop decision
    ///    waits for block 0, so block 1 has no sixth update before block 0
    ///    goes on, and the wait ends at its time bound.
    struct Handoff {
        updates: Mutex<[usize; 3]>,
        progress: Condvar,
    }

    impl IterativeKernel for Handoff {
        fn num_blocks(&self) -> usize {
            3
        }

        fn block_len(&self, _block: usize) -> usize {
            1
        }

        fn initial_block(&self, _block: usize) -> Vec<f64> {
            vec![0.0]
        }

        fn dependencies(&self, block: usize) -> Vec<usize> {
            match block {
                2 => vec![],
                b => vec![1 - b],
            }
        }

        fn update_block(
            &self,
            block: usize,
            local: &[f64],
            others: &crate::kernel::DependencyView,
        ) -> crate::kernel::BlockUpdate {
            let mut updates = self.updates.lock().unwrap();
            updates[block] += 1;
            let wait = match (block, updates[block]) {
                (1, 1) => Some((0, 5)),
                (0, 6) => Some((1, 6)),
                _ => None,
            };
            self.progress.notify_all();
            if let Some((other, count)) = wait {
                let timeout = std::time::Duration::from_millis(250);
                let _ = self
                    .progress
                    .wait_timeout_while(updates, timeout, |u| u[other] < count)
                    .unwrap();
            }
            let x = match block {
                2 => 1.0,
                b => others.expect(1 - b)[0] / 2.0 + 1.0,
            };
            crate::kernel::BlockUpdate {
                values: vec![x],
                residual: (x - local[0]).abs(),
            }
        }
    }

    #[test]
    fn a_block_still_taking_fresh_data_holds_back_the_stop() {
        let kernel = Handoff {
            updates: Mutex::new([0; 3]),
            progress: Condvar::new(),
        };
        let config = RunConfig::asynchronous(1e-10)
            .with_streak(4)
            .with_num_workers(3);
        let report = ThreadedRuntime::new().run(&kernel, &config);
        assert!(report.converged);
        let expected = [2.0, 2.0, 1.0];
        for (i, (x, e)) in report.solution.iter().zip(expected).enumerate() {
            assert!((x - e).abs() < 1e-8, "block {i}: {x} instead of {e}");
        }
    }

    #[test]
    fn stop_broadcast_releases_parked_workers() {
        // More workers than runnable work: most of the pool spends the run
        // parked on an empty queue. The stop broadcast must wake every one
        // of them or the scope join hangs.
        let kernel = RingContraction::new(8);
        let config = RunConfig::asynchronous(1e-10)
            .with_streak(6)
            .with_num_workers(8);
        let started = std::time::Instant::now();
        let report = ThreadedRuntime::new().run(&kernel, &config);
        assert!(report.converged);
        assert!(
            started.elapsed().as_secs() < 30,
            "parked workers must observe the stop broadcast, took {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn traced_async_run_records_runtime_layer_events() {
        use aiac_obs::TraceConfig;
        let kernel = RingContraction::new(6);
        let config = RunConfig::asynchronous(1e-10)
            .with_streak(4)
            .with_num_workers(2)
            .with_tracing(TraceConfig::on());
        let (report, snap) = ThreadedRuntime::new().run_traced(&kernel, &config);
        assert!(report.converged);
        assert!(!snap.is_empty());
        assert_eq!(snap.layers(), vec![Layer::Runtime]);
        let names: std::collections::BTreeSet<&str> = snap
            .tracks
            .iter()
            .flat_map(|t| t.ring.iter_in_order().map(|e| e.name))
            .collect();
        assert!(names.contains("iterate"), "{names:?}");
        assert!(names.contains("publish"), "{names:?}");
        assert!(names.contains("converge"), "{names:?}");
    }

    #[test]
    fn traced_sync_run_records_iterate_and_barrier_spans() {
        use aiac_obs::TraceConfig;
        let kernel = RingContraction::new(4);
        let config = RunConfig::synchronous(1e-8)
            .with_num_workers(2)
            .with_tracing(TraceConfig::on());
        let (report, snap) = ThreadedRuntime::new().run_traced(&kernel, &config);
        assert!(report.converged);
        let names: std::collections::BTreeSet<&str> = snap
            .tracks
            .iter()
            .flat_map(|t| t.ring.iter_in_order().map(|e| e.name))
            .collect();
        assert!(names.contains("iterate"), "{names:?}");
        assert!(names.contains("barrier"), "{names:?}");
    }

    #[test]
    fn untraced_runs_leave_the_snapshot_empty() {
        let kernel = RingContraction::new(4);
        let config = RunConfig::asynchronous(1e-10).with_streak(4);
        let (report, snap) = ThreadedRuntime::new().run_traced(&kernel, &config);
        assert!(report.converged);
        assert!(snap.is_empty());
    }

    #[test]
    fn one_worker_async_ring_stays_close_to_the_sync_update_count() {
        // On one worker the asynchronous pool can only reorder the same
        // sweep, so it must not burn many more block updates than the
        // synchronous supersteps. A per-worker LIFO deque re-ran the block
        // it had just requeued ahead of older work and did ~1.36x the
        // sync updates here; FIFO order keeps every block's turn.
        let kernel = RingContraction::new(256);
        let updates = |config: RunConfig| {
            let mode = config.mode;
            let report = ThreadedRuntime::new().run(&kernel, &config.with_num_workers(1));
            assert!(report.converged, "{mode:?}");
            report.iterations.iter().sum::<u64>()
        };
        let sync = updates(RunConfig::synchronous(1e-8));
        let asynchronous = updates(RunConfig::asynchronous(1e-8).with_streak(3));
        assert!(
            asynchronous as f64 <= 1.2 * sync as f64,
            "async did {asynchronous} block updates, sync {sync}"
        );
    }
}
