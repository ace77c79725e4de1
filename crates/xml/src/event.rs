//! Forest-structured parse events.
//!
//! The event stream corresponds one-to-one with the term structure of the
//! forest (Definition 1): `Open(l)` starts the tree `l(…)`, the matching
//! `Close(l)` ends it, and `Eof` is the ε closing the top-level forest. Text
//! nodes appear as an `Open`/`Close` pair with a text label.

use crate::error::XmlError;
use foxq_forest::Label;

/// One parse event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XmlEvent {
    /// A node begins; for text nodes the label carries the content.
    Open(Label),
    /// The most recently opened node ends.
    Close(Label),
    /// End of the document.
    Eof,
}

/// A producer of [`XmlEvent`]s — the engine-facing event-source interface.
///
/// The streaming engines (`foxq_core::stream`, the multi-query fan-out)
/// consume parse events, not XML text, so anything that can replay
/// Definition 1's `Open`/`Close`/`Eof` stream can drive them: the pull
/// parser [`crate::XmlReader`], or a pre-parsed binary tape
/// (`foxq_store::TapeReader`) that skips tokenization entirely.
///
/// Contract: after `Eof` has been returned once, further calls keep
/// returning `Eof`. `events_read` counts the open/close events consumed so
/// far (`Eof` excluded) — the ones `next_event` returned *and* the ones
/// `skip_subtree` counted — so it reads the same whether a consumer skipped
/// or pulled every event, on every source.
pub trait EventSource {
    /// Pull the next event.
    fn next_event(&mut self) -> Result<XmlEvent, XmlError>;

    /// Open/close events consumed so far (`Eof` excluded), skipped ones
    /// included.
    fn events_read(&self) -> u64;

    /// Right after `next_event` returned an element's `Open`: consume its
    /// subtree through the matching `Close` and return how many open + close
    /// events that was (the close included, the open not). A consumer that
    /// has no use for the subtree calls this instead of pulling it, and then
    /// goes on as if it had just been handed the `Close`.
    ///
    /// What is skipped fails as it would have failed pulled, wherever the
    /// source can tell without building the events: [`crate::XmlReader`]
    /// checks every byte, a tape seeks and verifies what its format lets it.
    /// This default pulls.
    fn skip_subtree(&mut self) -> Result<u64, XmlError> {
        let (mut events, mut depth) = (0, 1usize);
        while depth > 0 {
            match self.next_event()? {
                XmlEvent::Open(_) => depth += 1,
                XmlEvent::Close(_) => depth -= 1,
                XmlEvent::Eof => break,
            }
            events += 1;
        }
        Ok(events)
    }
}

impl<E: EventSource + ?Sized> EventSource for &mut E {
    fn next_event(&mut self) -> Result<XmlEvent, XmlError> {
        (**self).next_event()
    }

    fn events_read(&self) -> u64 {
        (**self).events_read()
    }

    fn skip_subtree(&mut self) -> Result<u64, XmlError> {
        (**self).skip_subtree()
    }
}
