//! The peak resident memory of a certificate: the Figure 9 composition
//! at (N=3, |V|=3) — 308 178 states — proved twice in one process, the
//! process's high-water mark (`VmHWM`, Linux only) printed after each.
//!
//! A certificate's memory should be its product graph plus each check's
//! scratch. The second proof shows what the first left behind in the
//! allocator: glibc raises its mmap threshold to the size of each
//! mmapped block that is freed, so after the first large free it serves
//! smaller columns from the heap, where a column that grows by copying
//! leaves holes. Run it as is and with `MALLOC_MMAP_THRESHOLD_=131072`
//! in its environment (which pins the threshold) to see how much of
//! the peak is such residue:
//!
//! ```text
//! cargo run --release -p opentla-examples --bin cert_peak
//! MALLOC_MMAP_THRESHOLD_=131072 cargo run --release -p opentla-examples --bin cert_peak
//! ```
//!
//! Each certificate's line ends in `VmHWM <kB> kB`; the last such line
//! is the run's peak.

use opentla::CompositionOptions;
use opentla_queue::{DoubleQueue, FairnessStyle};

/// The process's peak resident set, in kB, from `/proc/self/status`.
fn vm_hwm_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

fn main() {
    let queue = DoubleQueue::new(3, 3, FairnessStyle::Joint);
    for run in 1..=2 {
        let cert = queue
            .prove_composition(&CompositionOptions::default())
            .expect("well-posed");
        assert!(cert.holds(), "Figure 9 at (3, 3) holds");
        let peak = vm_hwm_kb().map_or("unavailable".to_string(), |kb| format!("{kb} kB"));
        println!(
            "certificate {run}: {} states, {} transitions, proved; VmHWM {peak}",
            cert.product_states, cert.product_edges
        );
    }
}
