//! Pressure Stall Information (PSI) for the TMO reproduction.
//!
//! PSI is the Linux kernel mechanism introduced by the TMO paper
//! (Weiner et al., ASPLOS '22, §3.2) that measures, in real time, the
//! amount of *lost work* due to a shortage of CPU, memory, or I/O. This
//! crate implements PSI's accounting model exactly as the paper defines
//! it:
//!
//! * For each resource, the **`some`** metric tracks the share of wall
//!   time during which *at least one* non-idle task in the domain was
//!   stalled waiting on that resource.
//! * The **`full`** metric tracks the share of wall time during which
//!   *all* non-idle tasks were stalled simultaneously — completely
//!   unproductive time.
//!
//! The engine is *exact*: per observation window, each task reports the
//! intervals during which it was stalled, and `some`/`full` are computed
//! as the measure of the union / intersection of those interval sets
//! ([`intervals`]). Totals accumulate in nanoseconds and are folded into
//! avg10 / avg60 / avg300 exponential running averages, mirroring the
//! kernel's `/proc/pressure/*` files ([`avg`], [`render`]).
//!
//! # Example
//!
//! ```
//! use tmo_psi::{IntervalSet, PsiGroup, Resource, TaskObservation};
//! use tmo_sim::SimDuration;
//!
//! let mut psi = PsiGroup::new(4); // a 4-CPU domain
//! let window = SimDuration::from_secs(1);
//!
//! // One task stalled on memory for 100 ms of the 1 s window.
//! let mut task = TaskObservation::non_idle();
//! task.stall(
//!     Resource::Memory,
//!     IntervalSet::from_spans(&[(0, 100_000_000)]),
//! );
//! psi.observe(window, &[task, TaskObservation::non_idle()]);
//!
//! let snap = psi.snapshot(Resource::Memory);
//! assert!((snap.some_ratio_last_window - 0.1).abs() < 1e-9);
//! assert_eq!(snap.full_ratio_last_window, 0.0);
//! ```

pub mod avg;
pub mod group;
pub mod intervals;
pub mod render;
pub mod state;

pub use group::{PsiGroup, PsiSnapshot, Resource, SpanBatch, TaskObservation};
pub use intervals::{Interval, IntervalSet, SweepScratch};
pub use render::render_pressure_file;
