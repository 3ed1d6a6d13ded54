//! The pull-based consumer face of a fleet run.
//!
//! [`FleetEngine::stream`] moves the engine onto a background thread
//! and hands back a [`FleetStream`] — a plain `Iterator` of
//! [`FleetEvent`]s fed over a **bounded** channel. The bound is the
//! whole memory story: workers block once the consumer falls
//! `capacity` records behind, so a million-trial floor streams through
//! a fixed-size window no matter how slowly the consumer drains it.
//! Dropping the stream early disconnects the channel; the engine's
//! remaining sends fail fast and the background thread winds down on
//! its own (joined by the stream's `Drop`).

use crate::engine::{BoardSummary, FleetEngine, FleetSummary};
use crate::error::FleetError;
use crate::record::RecordSink;
use crate::spec::BoardSpec;
use sint_core::checkpoint::CheckpointEntry;
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::Mutex;
use std::thread::JoinHandle;

/// One pulled result.
#[derive(Debug, Clone, PartialEq)]
pub enum FleetEvent {
    /// A trial finished: its board, owning client's name, and the
    /// checkpoint record.
    Trial {
        /// The board the trial ran on.
        board: BoardSpec,
        /// The owning client's display name.
        client: String,
        /// The trial's checkpoint record.
        entry: CheckpointEntry,
    },
    /// A board finished (or crashed).
    Board(BoardSummary),
    /// The floor is done; this is the final event.
    Done(FleetSummary),
}

/// A running fleet, consumed by iteration. See the module docs for
/// the backpressure and drop contracts.
#[derive(Debug)]
pub struct FleetStream {
    rx: Option<Receiver<FleetEvent>>,
    handle: Option<JoinHandle<()>>,
}

impl Iterator for FleetStream {
    type Item = FleetEvent;

    fn next(&mut self) -> Option<FleetEvent> {
        self.rx.as_ref().and_then(|rx| rx.recv().ok())
    }
}

impl Drop for FleetStream {
    fn drop(&mut self) {
        // Disconnect first so the engine's pending sends error out
        // instead of blocking, then join the background thread.
        self.rx = None;
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Bridges the engine's push-style sink onto the stream's channel.
/// `SyncSender` is `Send` but not `Sync`, so a mutex serialises the
/// senders; a blocked `send` (consumer behind) holds the lock, which
/// simply extends the backpressure to every worker — the bound stays
/// exact.
struct ChannelSink {
    tx: Mutex<SyncSender<FleetEvent>>,
}

impl ChannelSink {
    fn send(&self, event: FleetEvent) {
        if let Ok(tx) = self.tx.lock() {
            // A disconnected consumer is not an error: the run finishes
            // and discards its remaining events.
            let _ = tx.send(event);
        }
    }
}

impl RecordSink for ChannelSink {
    fn record(
        &self,
        board: &BoardSpec,
        client: &str,
        entry: &CheckpointEntry,
    ) -> Result<(), FleetError> {
        self.send(FleetEvent::Trial {
            board: *board,
            client: client.to_string(),
            entry: entry.clone(),
        });
        Ok(())
    }

    fn board_done(&self, summary: &BoardSummary) -> Result<(), FleetError> {
        self.send(FleetEvent::Board(summary.clone()));
        Ok(())
    }
}

impl FleetEngine {
    /// Runs the floor on a background thread, returning a pull-based
    /// iterator of its events. `capacity` bounds the in-flight record
    /// window (clamped to at least 1); the final [`FleetEvent::Done`]
    /// carries the merged summary.
    #[must_use]
    pub fn stream(self, threads: usize, capacity: usize) -> FleetStream {
        let (tx, rx) = std::sync::mpsc::sync_channel(capacity.max(1));
        let handle = std::thread::spawn(move || {
            let sink = ChannelSink { tx: Mutex::new(tx) };
            let summary = self.run(threads, &sink);
            sink.send(FleetEvent::Done(summary));
        });
        FleetStream { rx: Some(rx), handle: Some(handle) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::NullSink;
    use crate::spec::{ClientSpec, FloorSpec};

    fn floor() -> FloorSpec {
        FloorSpec::new(6)
            .trials_per_board(2)
            .with_clients(vec![ClientSpec::new("a"), ClientSpec::new("b")])
    }

    #[test]
    fn stream_delivers_every_trial_board_and_the_summary() {
        let engine = FleetEngine::new(floor()).unwrap();
        let reference = FleetEngine::new(floor()).unwrap().run(1, &NullSink);
        // A tiny capacity forces the backpressure path.
        let mut trials = 0usize;
        let mut boards = 0usize;
        let mut done = None;
        for event in engine.stream(4, 2) {
            match event {
                FleetEvent::Trial { .. } => trials += 1,
                FleetEvent::Board(summary) => {
                    assert!(summary.crashed.is_none());
                    boards += 1;
                }
                FleetEvent::Done(summary) => done = Some(summary),
            }
        }
        assert_eq!(trials, 6 * 2);
        assert_eq!(boards, 6);
        let done = done.expect("stream ends with the summary");
        assert_eq!(done, reference, "streamed summary matches the direct run");
    }

    #[test]
    fn dropping_the_stream_early_does_not_hang() {
        let engine = FleetEngine::new(floor()).unwrap();
        let mut stream = engine.stream(2, 1);
        let first = stream.next();
        assert!(first.is_some());
        drop(stream); // must disconnect + join without deadlock
    }
}
