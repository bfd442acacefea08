//! The unit of simulation: a [`Component`] advances one clock cycle per
//! call, and a bounded run ends with a [`RunOutcome`].

use crate::clock::Cycle;

/// A simulatable unit of hardware: advances one clock cycle per call.
///
/// Implementors report *progress* so a scheduler can tell a tick that
/// moved state from one that was a no-op, and skip the no-ops.
///
/// `Send` is a supertrait: models are plain owned data (no `Rc`, no
/// thread-local handles), so a whole simulated system can move onto a
/// worker thread (the campaign fork pool runs one system per thread).
pub trait Component: Send {
    /// Advances the component by one cycle. Returns `true` if any state
    /// changed (a beat moved, a counter advanced toward an observable
    /// event).
    ///
    /// A tick returning `false` must not change state. This holds for
    /// each component on its own, not only for a whole system: the
    /// activity-driven scheduler skips a node's ticks while its inputs
    /// are unchanged and [`Self::next_event`] lies in the future, even
    /// while other nodes keep making progress.
    fn tick(&mut self, now: Cycle) -> bool;

    /// Event-horizon hint: the earliest future cycle at which this
    /// component could possibly make progress or change observable
    /// state, assuming no external input arrives before then.
    ///
    /// The contract is asymmetric: a component may *under-promise*
    /// (return a cycle earlier than its true next event — the scheduler
    /// merely wakes it up for nothing), but must never *over-promise*
    /// (return a cycle later than its true next event, which would let
    /// the scheduler skip state changes). `None` means "purely
    /// reactive": nothing will happen until some other component feeds
    /// this one. The default of `Some(now + 1)` reproduces plain
    /// cycle-by-cycle stepping and is always safe.
    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        Some(now + 1)
    }

    /// Names of the innermost sub-components that made progress on the
    /// most recent tick that made any — triage information for a run
    /// that stopped moving. Leaf components and aggregates that don't
    /// track attribution return an empty list (the default).
    fn last_active(&self) -> Vec<String> {
        Vec::new()
    }
}

impl<T: Component + ?Sized> Component for Box<T> {
    fn tick(&mut self, now: Cycle) -> bool {
        (**self).tick(now)
    }

    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        (**self).next_event(now)
    }

    fn last_active(&self) -> Vec<String> {
        (**self).last_active()
    }
}

/// Why a bounded run stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunOutcome {
    /// The caller-supplied predicate became true at the contained cycle.
    Done(Cycle),
    /// The cycle limit was reached before the predicate held.
    CycleLimit(Cycle),
}

impl RunOutcome {
    /// The cycle at which the run stopped, regardless of outcome.
    pub fn cycle(&self) -> Cycle {
        match *self {
            RunOutcome::Done(c) | RunOutcome::CycleLimit(c) => c,
        }
    }

    /// Whether the run completed because the predicate held.
    pub fn is_done(&self) -> bool {
        matches!(self, RunOutcome::Done(_))
    }
}

impl std::fmt::Display for RunOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunOutcome::Done(c) => write!(f, "done at cycle {c}"),
            RunOutcome::CycleLimit(c) => write!(f, "cycle limit reached at {c}"),
        }
    }
}
