//! A delegating [`Policy`] that times the layers below the service.
//!
//! `Probe` forwards every call to the wrapped policy and, when given a
//! trace, records a span around `score_into` (`bandit.score`), the
//! arrangement step `ScoreWorkspace::arrange_into` (`bandit.oracle`) and
//! `observe` (`bandit.observe`). It reproduces the trait's default
//! `select_into` step for step, so decisions are bit-identical to the
//! unwrapped policy. The wrapped policy sits behind a shared mutex so the
//! benchmark can read it (model-store statistics, digests) between rounds
//! while the service owns the probe.

use std::sync::{Arc, Mutex, MutexGuard};

use fasea_bandit::{Policy, ScoreWorkspace, SelectionView, SnapshotError};
use fasea_core::{Arrangement, ContextMatrix, Feedback};

use crate::trace::SharedTrace;

/// See the module docs.
pub struct Probe<P: Policy> {
    inner: Arc<Mutex<P>>,
    ws: ScoreWorkspace,
    trace: Option<SharedTrace>,
}

impl<P: Policy> Probe<P> {
    /// Wraps `inner`; spans go to `trace` when one is given.
    pub fn new(inner: P, trace: Option<SharedTrace>) -> (Self, Arc<Mutex<P>>) {
        let inner = Arc::new(Mutex::new(inner));
        let probe = Probe {
            inner: Arc::clone(&inner),
            ws: ScoreWorkspace::new(),
            trace,
        };
        (probe, inner)
    }

    fn inner(&self) -> MutexGuard<'_, P> {
        self.inner
            .lock()
            .expect("a thread panicked while holding the probed policy")
    }

    fn span<R>(&self, name: &'static str, round: u64, f: impl FnOnce() -> R) -> R {
        match &self.trace {
            None => f(),
            Some(trace) => {
                let id = trace.lock().expect("trace lock").begin(name, round);
                let out = f();
                trace.lock().expect("trace lock").end(id);
                out
            }
        }
    }
}

impl<P: Policy> Policy for Probe<P> {
    fn name(&self) -> &'static str {
        self.inner().name()
    }

    fn score_into(&mut self, view: &SelectionView<'_>, ws: &mut ScoreWorkspace) {
        let inner = Arc::clone(&self.inner);
        self.span("bandit.score", view.t, || {
            inner.lock().expect("probed policy").score_into(view, ws)
        });
    }

    fn workspace(&self) -> &ScoreWorkspace {
        &self.ws
    }

    fn workspace_mut(&mut self) -> &mut ScoreWorkspace {
        &mut self.ws
    }

    fn select_into(&mut self, view: &SelectionView<'_>, out: &mut Arrangement) {
        // The trait's default select_into, with the two steps timed.
        let mut ws = std::mem::take(&mut self.ws);
        if !ws.take_prefetch(view.t) {
            self.score_into(view, &mut ws);
        }
        ws.mark_scored();
        self.span("bandit.oracle", view.t, || ws.arrange_into(view, out));
        self.ws = ws;
    }

    fn scoring_is_deterministic(&self) -> bool {
        self.inner().scoring_is_deterministic()
    }

    fn prefetch_scores(&mut self, view: &SelectionView<'_>) {
        let mut ws = std::mem::take(&mut self.ws);
        self.score_into(view, &mut ws);
        ws.stash_prefetch(view.t);
        self.ws = ws;
    }

    fn observe(
        &mut self,
        t: u64,
        contexts: &ContextMatrix,
        arrangement: &Arrangement,
        feedback: &Feedback,
    ) {
        let inner = Arc::clone(&self.inner);
        self.span("bandit.observe", t, || {
            inner
                .lock()
                .expect("probed policy")
                .observe(t, contexts, arrangement, feedback)
        });
    }

    fn last_scores(&self) -> Option<&[f64]> {
        self.ws.last_scores()
    }

    fn state_bytes(&self) -> usize {
        self.inner().state_bytes()
    }

    fn save_state(&self) -> Vec<u8> {
        self.inner().save_state()
    }

    fn restore_state(&mut self, blob: &[u8]) -> Result<(), SnapshotError> {
        self.inner().restore_state(blob)
    }
}
