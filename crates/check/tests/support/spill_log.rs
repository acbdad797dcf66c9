//! What a budgeted run spilled, read off its `spill` events — the one
//! view that works whether or not the run's segment directory
//! outlives it.

use opentla_check::{Event, Recorder};
use std::sync::Mutex;

/// The tier of every `spill` event, in order: `"arena"` or `"edges"`
/// for a sealed segment, `"visited"` for a drained fingerprint run.
#[derive(Default)]
pub struct SpillLog(Mutex<Vec<String>>);

impl Recorder for SpillLog {
    fn record(&self, event: &Event<'_>) {
        if let Event::Spill { tier, .. } = event {
            self.0.lock().unwrap().push(tier.to_string());
        }
    }
}

impl SpillLog {
    /// How many segments (or runs) `tier` wrote.
    pub fn sealed(&self, tier: &str) -> usize {
        self.0.lock().unwrap().iter().filter(|t| *t == tier).count()
    }
}
