//! Observation hooks for the LLM stack.
//!
//! The co-design runtime wants to *see* what the model layer is doing —
//! every prompt and parse failure — without the LLM crates knowing
//! anything about journals or report formats. This module provides the
//! narrow waist: a typed [`LlmEvent`] stream and a cheaply cloneable
//! [`ObserverHandle`] that the optimizer emits into. Higher layers
//! (the `lcda-core` run journal) install an observer; when none is
//! installed every emit is a no-op, so instrumented code costs nothing in
//! un-observed runs.
//!
//! Events carry only deterministic payloads (episodes, attempt numbers,
//! prompt lengths, parse errors) so an observer that logs them can be
//! byte-reproducible across identical seeded runs.

use std::fmt;
use std::sync::{Arc, Mutex};

/// One observable moment in the LLM stack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LlmEvent {
    /// The optimizer sent a prompt to the model.
    Prompt {
        /// The optimizer episode the prompt belongs to.
        episode: u32,
        /// Attempt number within the episode (0 = first try, >0 = retry
        /// with a corrective note).
        attempt: u32,
        /// Rendered prompt length in bytes.
        chars: u64,
    },
    /// A model response could not be parsed into a design.
    ParseFailure {
        /// The optimizer episode the response belonged to.
        episode: u32,
        /// The parse error, single line.
        error: String,
    },
}

/// A sink for [`LlmEvent`]s, installed behind an [`ObserverHandle`].
pub trait LlmObserver: Send {
    /// Receives one event. Implementations must not panic.
    fn record(&mut self, event: &LlmEvent);
}

/// A cheaply cloneable, optionally-empty handle to a shared observer.
///
/// All clones feed the same underlying observer; the default handle is
/// empty and every [`ObserverHandle::emit`] through it is a no-op. This is
/// the type [`LanguageModel`] optimizers store, so instrumentation never
/// changes their construction signatures.
///
/// [`LanguageModel`]: crate::LanguageModel
#[derive(Clone, Default)]
pub struct ObserverHandle {
    observer: Option<Arc<Mutex<Box<dyn LlmObserver>>>>,
}

impl ObserverHandle {
    /// The empty handle: every emit is a no-op.
    pub fn none() -> Self {
        ObserverHandle::default()
    }

    /// Wraps an observer so it can be shared across the stack.
    pub fn new(observer: Box<dyn LlmObserver>) -> Self {
        ObserverHandle {
            observer: Some(Arc::new(Mutex::new(observer))),
        }
    }

    /// True when an observer is installed.
    pub fn is_active(&self) -> bool {
        self.observer.is_some()
    }

    /// Sends one event to the installed observer (no-op when empty).
    pub fn emit(&self, event: LlmEvent) {
        if let Some(observer) = &self.observer {
            if let Ok(mut guard) = observer.lock() {
                guard.record(&event);
            }
        }
    }
}

impl fmt::Debug for ObserverHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ObserverHandle")
            .field("active", &self.is_active())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A collector whose event log is shared so the test can read it back
    /// after handing the observer to a handle.
    struct SharedCollector(Arc<Mutex<Vec<LlmEvent>>>);
    impl LlmObserver for SharedCollector {
        fn record(&mut self, event: &LlmEvent) {
            self.0.lock().unwrap().push(event.clone());
        }
    }

    #[test]
    fn empty_handle_is_a_noop() {
        let h = ObserverHandle::none();
        assert!(!h.is_active());
        h.emit(LlmEvent::Prompt {
            episode: 0,
            attempt: 0,
            chars: 1,
        }); // must not panic
    }

    #[test]
    fn clones_share_one_observer() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let h = ObserverHandle::new(Box::new(SharedCollector(log.clone())));
        assert!(h.is_active());
        let h2 = h.clone();
        h.emit(LlmEvent::Prompt {
            episode: 0,
            attempt: 0,
            chars: 12,
        });
        h2.emit(LlmEvent::ParseFailure {
            episode: 0,
            error: "no brackets".into(),
        });
        let events = log.lock().unwrap();
        assert_eq!(events.len(), 2);
        assert!(matches!(events[0], LlmEvent::Prompt { chars: 12, .. }));
        assert!(matches!(
            events[1],
            LlmEvent::ParseFailure { episode: 0, .. }
        ));
    }
}
