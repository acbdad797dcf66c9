//! Exports the paper's queue system as a TLA⁺ module, ready for TLC.
//!
//! Run with `cargo run -p opentla-examples --bin export_tla`.

use opentla::to_tla_module;
use opentla_queue::{FairnessStyle, SingleQueue};

fn main() {
    let world = SingleQueue::new(2, 2, FairnessStyle::Joint);
    let module = to_tla_module("CompleteQueue", world.vars(), &[world.env(), world.queue()]);
    println!("{module}");
}
