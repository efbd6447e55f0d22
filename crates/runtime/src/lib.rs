//! # adn-runtime
//!
//! Actor-based **asynchronous** execution for actively dynamic networks.
//!
//! The paper's algorithms are specified in synchronous rounds and the
//! `adn-sim` engine runs them in lock step. This crate drops the round
//! barrier: every node is an actor with an inbox, local state and a
//! message handler ([`AsyncProgram`]), and message delivery is driven by
//! a pluggable scheduler:
//!
//! * [`SeededScheduler`] — single-threaded discrete-event delivery whose
//!   entire order (including reordering, per-link delays and asymmetric
//!   link latency) derives from **one `u64`** via the workspace's
//!   deterministic RNG. Runs replay byte-identically, preserving the
//!   DST replay/shrink discipline of the synchronous sweep.
//! * [`FreeScheduler`] — real threads over `std::sync::mpsc` channels,
//!   free-running delivery, for hardware-throughput numbers.
//!
//! Runs quiesce without a round counter via **Dijkstra–Scholten
//! termination detection** ([`termination`]): the scheduler acts as the
//! root of a diffusing computation, every application message carries an
//! ack obligation, and the run ends exactly when the root's deficit
//! reaches zero — at which point no message is in flight (property-tested
//! in `tests/runtime_model.rs`). A phased run (`run_phased`) is a sequence
//! of such barriers, each starting only the actors its driver lists, so a
//! barrier costs O(started + messages + acks) deliveries rather than O(n).
//!
//! Edge operations requested by a handler ([`Context::activate`] /
//! [`Context::deactivate`]) are staged and committed through the
//! validated [`adn_sim::Network`] API atomically with respect to other
//! handlers, so the distance-2 activation rule is enforced exactly as in
//! the synchronous engine.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod actor;
pub mod fault;
pub mod flood;
pub mod free;
pub mod seeded;
pub mod termination;

pub use actor::{AsyncProgram, Context, Envelope};
pub use fault::{FaultEvent, FaultKind, FaultPlan};
pub use flood::FloodActor;
pub use free::FreeScheduler;
pub use seeded::SeededScheduler;

use adn_sim::dst::Scenario;
use adn_sim::SimError;
use std::error::Error;
use std::fmt;

/// Delivery-perturbation knobs for the asynchronous schedulers, normally
/// lifted from a [`Scenario`]'s async fields (see
/// [`AsyncKnobs::from_scenario`]). All zero/false means "earliest first,
/// no reordering".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AsyncKnobs {
    /// The seeded scheduler picks each delivery uniformly among the first
    /// `max(1, reorder_window)` in-flight messages in readiness order.
    pub reorder_window: usize,
    /// Maximum extra per-message delay (in scheduler steps), drawn
    /// uniformly from `0..=max_link_delay` per message.
    pub max_link_delay: usize,
    /// Give every ordered link a fixed base latency in
    /// `0..=2*max_link_delay`, derived deterministically from the
    /// scheduler seed — the two directions of a link run at persistently
    /// different speeds.
    pub asymmetric_delay: bool,
}

impl AsyncKnobs {
    /// Lifts the asynchronous delivery knobs out of a scenario (the fault
    /// weights and budgets are the synchronous adversary's business and
    /// are ignored here).
    pub fn from_scenario(scenario: &Scenario) -> Self {
        AsyncKnobs {
            reorder_window: scenario.reorder_window,
            max_link_delay: scenario.max_link_delay,
            asymmetric_delay: scenario.asymmetric_delay,
        }
    }
}

/// Errors raised by the asynchronous runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// An edge operation requested by a handler was rejected by the
    /// network (distance-2 violation, unknown node, …).
    Sim(SimError),
    /// The seeded scheduler exceeded its delivery-step budget without the
    /// termination detector firing.
    DidNotQuiesce {
        /// Deliveries performed before giving up.
        steps: usize,
    },
    /// The free scheduler's wall-clock timeout elapsed before the
    /// termination detector fired.
    TimedOut,
    /// Malformed run setup (program count vs. network size, …).
    InvalidInput {
        /// Human-readable description.
        reason: String,
    },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Sim(e) => write!(f, "simulator error: {e}"),
            RuntimeError::DidNotQuiesce { steps } => {
                write!(f, "run did not quiesce within {steps} delivery steps")
            }
            RuntimeError::TimedOut => write!(f, "free-running execution timed out"),
            RuntimeError::InvalidInput { reason } => write!(f, "invalid input: {reason}"),
        }
    }
}

impl Error for RuntimeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RuntimeError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SimError> for RuntimeError {
    fn from(value: SimError) -> Self {
        RuntimeError::Sim(value)
    }
}

/// What a completed asynchronous run did, with a stable
/// [`render`](RuntimeReport::render) for the seeded replay gate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuntimeReport {
    /// `"seeded"` or `"free"`.
    pub scheduler: &'static str,
    /// The scheduler seed (seeded runs only).
    pub seed: Option<u64>,
    /// Worker threads (free runs only).
    pub threads: Option<usize>,
    /// Number of actors.
    pub n: usize,
    /// Envelope deliveries performed (start + application + ack); only
    /// the actors a phase lists receive a start.
    pub steps: usize,
    /// Application messages delivered.
    pub app_messages: usize,
    /// Acknowledgements delivered (Dijkstra–Scholten bookkeeping).
    pub acks: usize,
    /// Edge-operation rounds committed on the network.
    pub commits: usize,
    /// Edge activations staged by handlers.
    pub activations: usize,
    /// Edge deactivations staged by handlers.
    pub deactivations: usize,
    /// Messages still in flight when the termination detector fired
    /// (provably zero — exposed so the property test can assert it).
    pub in_flight_at_detection: usize,
}

impl RuntimeReport {
    /// Renders the report as stable text. For seeded runs this is the
    /// byte-identity replay artifact (same seed ⇒ same bytes); free runs
    /// render too but their counters are timing-dependent.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("runtime: scheduler {}", self.scheduler));
        if let Some(seed) = self.seed {
            out.push_str(&format!(" seed {seed}"));
        }
        if let Some(threads) = self.threads {
            out.push_str(&format!(" threads {threads}"));
        }
        out.push_str(&format!(" · n {}\n", self.n));
        out.push_str(&format!(
            "  steps {} · app messages {} · acks {}\n",
            self.steps, self.app_messages, self.acks
        ));
        out.push_str(&format!(
            "  commits {} · activations {} · deactivations {}\n",
            self.commits, self.activations, self.deactivations
        ));
        out.push_str(&format!(
            "  termination: detected (Dijkstra–Scholten) · in flight {}\n",
            self.in_flight_at_detection
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knobs_lift_from_scenario() {
        let s = Scenario::async_asymmetric();
        let k = AsyncKnobs::from_scenario(&s);
        assert!(k.asymmetric_delay);
        assert_eq!(k.max_link_delay, s.max_link_delay);
        let clean = AsyncKnobs::from_scenario(&Scenario::failure_free());
        assert_eq!(clean, AsyncKnobs::default());
    }

    #[test]
    fn report_render_is_stable() {
        let report = RuntimeReport {
            scheduler: "seeded",
            seed: Some(7),
            threads: None,
            n: 4,
            steps: 12,
            app_messages: 5,
            acks: 5,
            commits: 2,
            activations: 2,
            deactivations: 1,
            in_flight_at_detection: 0,
        };
        let text = report.render();
        assert!(text.contains("scheduler seeded seed 7 · n 4"));
        assert!(text.contains("in flight 0"));
        assert_eq!(text, report.clone().render());
    }
}
