//! Outside-in spans: the benchmark times its own calls into each
//! crate's public functions, never code inside the program.
//!
//! A span has a layer, a host, a parent, a start and an end. Spans are
//! kept in memory per host while it runs, folded into per-layer totals
//! when it ends, and the first hosts' spans are written out at the end
//! of the run. A layer's self time is the sum of its spans' durations
//! minus the durations of their direct children.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Span layers, as indices into [`LAYER_NAMES`].
pub mod layer {
    /// One host from construction to its last step.
    pub const HOST: usize = 0;
    /// `Machine::with_scratch` plus `add_container*`.
    pub const MACHINE_NEW: usize = 1;
    /// One closed-loop step, the unit `tick_us_*` measures.
    pub const STEP: usize = 2;
    /// `Machine::tick`.
    pub const MACHINE_TICK: usize = 3;
    /// The scenario engine's hooks, called from inside `Machine::tick`.
    pub const MODULATE: usize = 4;
    /// `Machine::senpai_signal_guarded` and `Machine::oomd_signal`.
    pub const SIGNAL: usize = 5;
    /// `Senpai::due`, `Senpai::decide_for` and `Senpai::note_outcome`.
    pub const DECIDE: usize = 6;
    /// `Machine::reclaim`.
    pub const RECLAIM: usize = 7;
    /// `OomdMonitor::observe_signal`.
    pub const OOMD: usize = 8;
    /// `Machine::kill_container` on an oomd verdict.
    pub const KILL: usize = 9;
    /// `SloTracker`, `BlameLedger` and `CausalLedger` updates.
    pub const SCORE: usize = 10;
    /// `run_figure_with` for figure `n` is `FIGURE + n - 1`.
    pub const FIGURE: usize = 11;
}

/// Span names, indexed by [`layer`].
pub const LAYER_NAMES: [&str; 25] = [
    "host",
    "core.machine_new",
    "step",
    "core.machine_tick",
    "scenarios.modulate",
    "core.signal",
    "senpai.decide",
    "core.reclaim",
    "senpai.oomd",
    "core.kill",
    "scenarios.score",
    "experiments.fig01",
    "experiments.fig02",
    "experiments.fig03",
    "experiments.fig04",
    "experiments.fig05",
    "experiments.fig06",
    "experiments.fig07",
    "experiments.fig08",
    "experiments.fig09",
    "experiments.fig10",
    "experiments.fig11",
    "experiments.fig12",
    "experiments.fig13",
    "experiments.fig14",
];

/// Layers whose spans make up a step: their self times add up to the
/// step spans' durations.
pub const STEP_LAYERS: [usize; 9] = [
    layer::STEP,
    layer::MACHINE_TICK,
    layer::MODULATE,
    layer::SIGNAL,
    layer::DECIDE,
    layer::RECLAIM,
    layer::OOMD,
    layer::KILL,
    layer::SCORE,
];

const NO_PARENT: u32 = u32::MAX;

/// One recorded interval, in nanoseconds since the run's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Index into [`LAYER_NAMES`].
    pub layer: u8,
    /// Host index within the fleet (0 for single-host work).
    pub host: u32,
    /// Index of the enclosing span in the same buffer, if any.
    pub parent: Option<u32>,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
}

/// Per-layer totals folded from spans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerTotals {
    /// Spans per layer.
    pub calls: [u64; LAYER_NAMES.len()],
    /// Self time per layer, ns: durations minus direct children.
    pub self_ns: [i64; LAYER_NAMES.len()],
}

impl Default for LayerTotals {
    fn default() -> Self {
        LayerTotals {
            calls: [0; LAYER_NAMES.len()],
            self_ns: [0; LAYER_NAMES.len()],
        }
    }
}

impl LayerTotals {
    /// Adds another total into this one.
    pub fn merge(&mut self, other: &LayerTotals) {
        for i in 0..LAYER_NAMES.len() {
            self.calls[i] += other.calls[i];
            self.self_ns[i] += other.self_ns[i];
        }
    }

    /// Self time of `layer`, ms.
    pub fn self_ms(&self, layer: usize) -> f64 {
        self.self_ns[layer] as f64 / 1e6
    }
}

/// A span recorder for one host.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    host: u32,
    spans: Vec<RawSpan>,
    open: Vec<u32>,
}

#[derive(Debug, Clone, Copy)]
struct RawSpan {
    layer: u8,
    parent: u32,
    start: u64,
    end: u64,
}

impl Tracer {
    /// A tracer for `host`, timing against `epoch`.
    pub fn new(epoch: Instant, host: usize) -> Self {
        Tracer {
            epoch,
            host: host as u32,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span of `layer` under the innermost open span.
    #[inline]
    pub fn enter(&mut self, layer: usize) {
        let start = self.now();
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.open.push(self.spans.len() as u32);
        self.spans.push(RawSpan {
            layer: layer as u8,
            parent,
            start,
            end: start,
        });
    }

    /// Closes the innermost open span.
    #[inline]
    pub fn exit(&mut self) {
        let end = self.now();
        let index = self.open.pop().expect("exit without a matching enter");
        self.spans[index as usize].end = end;
    }

    /// Records `busy_ns` of `layer` work that happened, in pieces, inside
    /// the innermost open span (hooks the program calls back into). The
    /// span is placed at its parent's start; only its length is real.
    pub fn child_total(&mut self, layer: usize, busy_ns: u64) {
        if busy_ns == 0 {
            return;
        }
        let parent = *self.open.last().expect("child_total outside a span");
        let start = self.spans[parent as usize].start;
        self.spans.push(RawSpan {
            layer: layer as u8,
            parent,
            start,
            end: start + busy_ns,
        });
    }

    /// Folds the recorded spans into `totals`.
    pub fn fold(&self, totals: &mut LayerTotals) {
        assert!(self.open.is_empty(), "folding with spans still open");
        for s in &self.spans {
            let dur = s.end - s.start;
            let l = s.layer as usize;
            totals.calls[l] += 1;
            totals.self_ns[l] += dur as i64;
            if s.parent != NO_PARENT {
                let p = self.spans[s.parent as usize].layer as usize;
                totals.self_ns[p] -= dur as i64;
            }
        }
    }

    /// The recorded spans, in the order they were opened.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .iter()
            .map(|s| Span {
                layer: s.layer,
                host: self.host,
                parent: (s.parent != NO_PARENT).then_some(s.parent),
                start: s.start,
                end: s.end,
            })
            .collect()
    }
}

/// Writes spans as JSON lines: one object per span with its name, host,
/// parent (index within the same host's spans, or -1), start and end.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or(-1, i64::from);
        writeln!(
            out,
            "{{\"name\":\"{}\",\"host\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
            LAYER_NAMES[s.layer as usize], s.host, parent, s.start, s.end
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::new(Instant::now(), 3);
        t.enter(layer::STEP);
        t.enter(layer::MACHINE_TICK);
        t.child_total(layer::MODULATE, 5);
        t.exit();
        t.enter(layer::RECLAIM);
        t.exit();
        t.exit();
        let mut totals = LayerTotals::default();
        t.fold(&mut totals);
        let step_sum: i64 = STEP_LAYERS.iter().map(|&l| totals.self_ns[l]).sum();
        let step = t.spans()[0];
        assert_eq!(step_sum as u64, step.end - step.start);
        assert_eq!(totals.calls[layer::MODULATE], 1);
        assert!(t.spans().iter().all(|s| s.host == 3));
    }
}
