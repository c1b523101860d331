//! How a host is stepped. Untraced repetitions run the program's own
//! loops: [`run_timed`] times each `TmoRuntime::tick`, and scenario hosts
//! go through `run_scenario`. Traced repetitions step a [`Driven`] host
//! through the same public calls those loops make, so every call into a
//! layer can be timed from outside.
//!
//! `tests/step_loop.rs` pins the traced loop to `TmoRuntime::run` and to
//! `run_scenario` bit for bit, and every traced repetition's output
//! digest must equal the untraced one's.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use tmo::fleet::host_savings;
use tmo::prelude::*;
use tmo_scenarios::prelude::*;
use tmo_senpai::{OomdMonitor, Senpai};
use tmo_sim::Recorder;

use crate::stats::Digest;
use crate::trace::{layer, Tracer};

/// Invariants are read every this many steps, and once at the end.
const INVARIANT_EVERY: u64 = 1000;

/// Work counts gathered at the layer boundaries and from public stats.
/// Every field repeats exactly for a fixed seed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counters {
    /// Page accesses, summed from `Container::last_tick`.
    pub accesses: u64,
    /// `Senpai::decide_for` calls.
    pub decisions: u64,
    /// Decisions that asked for a non-zero reclaim.
    pub acted: u64,
    /// Bytes Senpai asked `Machine::reclaim` for.
    pub requested_bytes: u64,
    /// Bytes `Machine::reclaim` freed.
    pub reclaimed_bytes: u64,
    /// Pages scanned by those reclaims.
    pub scanned_pages: u64,
    /// Pages those reclaims freed.
    pub reclaimed_pages: u64,
    /// oomd kill verdicts.
    pub oomd_kills: u64,
    /// Causal provenance charges drained into the ledger.
    pub causal_charges: u64,
    /// Swap-ins over all containers.
    pub swapins: u64,
    /// Swap-outs over all containers.
    pub swapouts: u64,
    /// Refaults over all containers.
    pub refaults: u64,
    /// Direct reclaims.
    pub direct_reclaims: u64,
    /// Failed allocations.
    pub alloc_failures: u64,
    /// Backend loads that returned nothing (zero-filled).
    pub lost_loads: u64,
    /// Backend reads.
    pub reads: u64,
    /// Backend writes.
    pub writes: u64,
    /// Bytes written to the backend.
    pub written_bytes: u64,
    /// Backend I/O errors.
    pub io_errors: u64,
    /// Backend retries.
    pub retries: u64,
    /// Tier failovers.
    pub failovers: u64,
    /// Injected device faults.
    pub faults_injected: u64,
    /// Host-domain memory `some` stall, seconds.
    pub mem_some_s: f64,
    /// Host-domain memory `full` stall, seconds.
    pub mem_full_s: f64,
    /// Host-domain I/O `some` stall, seconds.
    pub io_some_s: f64,
}

impl Counters {
    /// Adds another set of counts into this one.
    pub fn merge(&mut self, o: &Counters) {
        self.accesses += o.accesses;
        self.decisions += o.decisions;
        self.acted += o.acted;
        self.requested_bytes += o.requested_bytes;
        self.reclaimed_bytes += o.reclaimed_bytes;
        self.scanned_pages += o.scanned_pages;
        self.reclaimed_pages += o.reclaimed_pages;
        self.oomd_kills += o.oomd_kills;
        self.causal_charges += o.causal_charges;
        self.swapins += o.swapins;
        self.swapouts += o.swapouts;
        self.refaults += o.refaults;
        self.direct_reclaims += o.direct_reclaims;
        self.alloc_failures += o.alloc_failures;
        self.lost_loads += o.lost_loads;
        self.reads += o.reads;
        self.writes += o.writes;
        self.written_bytes += o.written_bytes;
        self.io_errors += o.io_errors;
        self.retries += o.retries;
        self.failovers += o.failovers;
        self.faults_injected += o.faults_injected;
        self.mem_some_s += o.mem_some_s;
        self.mem_full_s += o.mem_full_s;
        self.io_some_s += o.io_some_s;
    }

    /// Adds the end-of-run mm, backend and host PSI totals of `m`.
    pub fn read_host_stats(&mut self, m: &Machine) {
        for id in m.container_ids() {
            let s = m.mm().cgroup_stat(m.container(id).cgroup());
            self.swapins += s.swapins_total;
            self.swapouts += s.swapouts_total;
            self.refaults += s.refaults_total;
        }
        let g = m.mm().global_stat();
        self.direct_reclaims += g.direct_reclaims;
        self.alloc_failures += g.alloc_failures;
        self.lost_loads += g.lost_loads;
        if let Some(b) = m.mm().swap_stats() {
            self.reads += b.reads;
            self.writes += b.writes;
            self.written_bytes += b.bytes_written.as_u64();
            self.io_errors += b.io_errors;
            self.retries += b.retries;
            self.failovers += b.failovers;
            self.faults_injected += b.faults_injected;
        }
        let psi = m.host_psi();
        let mem = psi.snapshot(Resource::Memory);
        self.mem_some_s += mem.some_total.as_secs_f64();
        self.mem_full_s += mem.full_total.as_secs_f64();
        self.io_some_s += psi.snapshot(Resource::Io).some_total.as_secs_f64();
    }
}

/// Time spent inside the scenario engine's hooks, shared between the
/// timing modulator (inside `Machine::tick`) and the step loop.
#[derive(Debug, Default)]
pub struct ModClock {
    busy_ns: AtomicU64,
}

impl ModClock {
    fn add(&self, since: Instant) {
        // A statistic only: it publishes no other data.
        self.busy_ns
            .fetch_add(since.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    fn take(&self) -> u64 {
        self.busy_ns.swap(0, Ordering::Relaxed)
    }
}

/// Wraps the scenario engine and times every hook call.
#[derive(Debug)]
struct TimedModulator {
    inner: ScenarioEngine,
    clock: Arc<ModClock>,
}

impl WorkloadModulator for TimedModulator {
    fn demand_scale(&self, container: usize, now: SimTime) -> f64 {
        let t = Instant::now();
        let v = self.inner.demand_scale(container, now);
        self.clock.add(t);
        v
    }

    fn leak_bytes_per_sec(&self, container: usize, now: SimTime) -> ByteSize {
        let t = Instant::now();
        let v = self.inner.leak_bytes_per_sec(container, now);
        self.clock.add(t);
        v
    }

    fn churn_bytes_per_sec(&self, container: usize, now: SimTime) -> ByteSize {
        let t = Instant::now();
        let v = self.inner.churn_bytes_per_sec(container, now);
        self.clock.add(t);
        v
    }

    fn storm_kill_victim(
        &self,
        tick: u64,
        now: SimTime,
        dt: SimDuration,
        containers: u64,
    ) -> Option<u64> {
        let t = Instant::now();
        let v = self.inner.storm_kill_victim(tick, now, dt, containers);
        self.clock.add(t);
        v
    }
}

/// `run_scenario`'s per-step scoring state.
#[derive(Debug)]
struct Scoring {
    scenario: Scenario,
    names: Vec<String>,
    cgs: Vec<CgroupId>,
    tracker: SloTracker,
    blame: BlameLedger,
    causal: CausalLedger,
    prev_resident: Vec<f64>,
    charges: Vec<ProvenanceCharge>,
    stalls: Vec<SimDuration>,
    psis: Vec<f64>,
    growth: Vec<f64>,
}

impl Scoring {
    fn observe(&mut self, m: &mut Machine, c: &mut Counters) {
        m.drain_causal_charges(&mut self.charges);
        c.causal_charges += self.charges.len() as u64;
        for ch in &self.charges {
            let victim = self.cgs.iter().position(|&cg| cg == ch.victim);
            let offender = self.cgs.iter().position(|&cg| cg == ch.offender);
            if let (Some(victim), Some(offender)) = (victim, offender) {
                self.causal.charge(victim, offender, ch.stall);
            }
        }
        let dt = m.config().tick;
        let now = m.now();
        for ci in 0..self.names.len() {
            let id = ContainerId(ci);
            let cg = m.container(id).cgroup();
            self.stalls[ci] = m.container(id).last_tick().mem_stall;
            self.psis[ci] = m.container(id).psi().some_avg10(Resource::Memory);
            let resident = m.mm().cgroup_stat(cg).resident().as_u64() as f64;
            self.growth[ci] = resident - self.prev_resident[ci];
            self.prev_resident[ci] = resident;
        }
        self.tracker.observe(now, dt, &self.stalls, &self.psis);
        self.blame.observe(&self.stalls, &self.growth);
    }
}

/// A machine under Senpai (and optionally oomd and scenario scoring),
/// stepped one closed-loop tick at a time with every layer call traced.
#[derive(Debug)]
pub struct Driven {
    machine: Machine,
    senpai: Senpai,
    oomd: Option<OomdMonitor>,
    scoring: Option<Scoring>,
    modulate: Option<Arc<ModClock>>,
}

impl Driven {
    /// A machine under one global Senpai, as `TmoRuntime::with_senpai`.
    pub fn senpai(machine: Machine, config: SenpaiConfig) -> Self {
        Driven {
            machine,
            senpai: Senpai::new(config),
            oomd: None,
            scoring: None,
            modulate: None,
        }
    }

    /// The set-up `run_scenario` does before its first tick, with the
    /// scenario engine wrapped in a timing modulator.
    pub fn scenario(mut machine: Machine, scenario: &Scenario, cfg: &ScenarioRunConfig) -> Self {
        let n = machine.container_count();
        let names: Vec<String> = machine
            .container_ids()
            .map(|id| machine.container(id).name().to_string())
            .collect();
        let clock = Arc::new(ModClock::default());
        machine.set_modulator(Box::new(TimedModulator {
            inner: ScenarioEngine::new(scenario.clone(), machine.config().seed),
            clock: Arc::clone(&clock),
        }));
        machine.enable_causal_tracking();
        let cgs: Vec<CgroupId> = (0..n)
            .map(|ci| machine.container(ContainerId(ci)).cgroup())
            .collect();
        let prev_resident = cgs
            .iter()
            .map(|&cg| machine.mm().cgroup_stat(cg).resident().as_u64() as f64)
            .collect();
        Driven {
            senpai: Senpai::new(cfg.senpai.clone()),
            oomd: cfg.oomd.clone().map(OomdMonitor::new),
            scoring: Some(Scoring {
                scenario: scenario.clone(),
                tracker: SloTracker::new(cfg.slo, names.clone()),
                names,
                cgs,
                blame: BlameLedger::new(n),
                causal: CausalLedger::new(n),
                prev_resident,
                charges: Vec::new(),
                stalls: vec![SimDuration::ZERO; n],
                psis: vec![0.0; n],
                growth: vec![0.0; n],
            }),
            machine,
            modulate: Some(clock),
        }
    }

    /// One step: machine, then oomd, then Senpai if due — the order of
    /// `TmoRuntime::tick` — then the scenario scoring of `run_scenario`.
    pub fn step(&mut self, tr: &mut Tracer, c: &mut Counters) {
        tr.enter(layer::STEP);
        tr.enter(layer::MACHINE_TICK);
        self.machine.tick();
        if let Some(clock) = &self.modulate {
            tr.child_total(layer::MODULATE, clock.take());
        }
        tr.exit();
        for id in self.machine.container_ids() {
            c.accesses += self.machine.container(id).last_tick().accesses;
        }
        let now = self.machine.now();
        let count = self.machine.container_count();
        if let Some(oomd) = &mut self.oomd {
            let dt = self.machine.config().tick;
            for id in (0..count).map(ContainerId) {
                if !self.machine.is_alive(id) {
                    continue;
                }
                tr.enter(layer::SIGNAL);
                let signal = self.machine.oomd_signal(id);
                tr.exit();
                tr.enter(layer::OOMD);
                let kill = oomd.observe_signal(id.as_usize(), signal, dt).is_some();
                tr.exit();
                if kill {
                    c.oomd_kills += 1;
                    tr.enter(layer::KILL);
                    self.machine.kill_container(id);
                    tr.exit();
                }
            }
        }
        tr.enter(layer::DECIDE);
        let due = self.senpai.due(now);
        tr.exit();
        if due {
            for id in (0..count).map(ContainerId) {
                if !self.machine.is_alive(id) {
                    continue;
                }
                tr.enter(layer::SIGNAL);
                let signal = self.machine.senpai_signal_guarded(id);
                tr.exit();
                let Some(signal) = signal else {
                    continue;
                };
                tr.enter(layer::DECIDE);
                let decision = self.senpai.decide_for(id.as_usize(), &signal);
                tr.exit();
                c.decisions += 1;
                if decision.reclaim > ByteSize::ZERO {
                    c.acted += 1;
                    tr.enter(layer::RECLAIM);
                    let outcome = self.machine.reclaim(id, decision.reclaim);
                    tr.exit();
                    let page = self.machine.config().page_size.as_u64();
                    c.requested_bytes += decision.reclaim.as_u64();
                    c.reclaimed_pages += outcome.reclaimed().as_u64();
                    c.reclaimed_bytes += outcome.reclaimed().as_u64() * page;
                    c.scanned_pages += outcome.scanned.as_u64();
                    tr.enter(layer::DECIDE);
                    self.senpai
                        .note_outcome(id.as_usize(), !outcome.reclaimed().is_zero());
                    tr.exit();
                }
            }
        }
        if let Some(scoring) = &mut self.scoring {
            tr.enter(layer::SCORE);
            scoring.observe(&mut self.machine, c);
            tr.exit();
        }
        tr.exit();
    }

    /// Steps until `duration` of simulated time has passed, as
    /// `TmoRuntime::run` does. Invariants are read between steps.
    pub fn run(
        &mut self,
        duration: SimDuration,
        tr: &mut Tracer,
        c: &mut Counters,
    ) -> Result<(), String> {
        let deadline = self.machine.now() + duration;
        let mut steps = 0u64;
        while self.machine.now() < deadline {
            self.step(tr, c);
            steps += 1;
            if steps.is_multiple_of(INVARIANT_EVERY) {
                check_invariants(&self.machine)?;
            }
        }
        check_invariants(&self.machine)
    }

    /// Consumes a plain Senpai host, returning its machine.
    pub fn into_machine(self) -> Machine {
        self.machine
    }

    /// Consumes a scenario host and scores it exactly as `run_scenario`
    /// does after its last tick.
    pub fn finish_scenario(self) -> (ScenarioOutcome, Machine) {
        let scoring = self
            .scoring
            .expect("finish_scenario on a host built without a scenario");
        let mut machine = self.machine;
        machine.clear_modulator();
        let kills = kill_counts(machine.recorder(), &scoring.names);
        let reports = scoring.tracker.finish(&scoring.scenario, &kills);
        let n = scoring.names.len();
        let wall: f64 = reports.first().map_or(0.0, |r| r.wall_secs);
        let total_stall: f64 = reports.iter().map(|r| r.stall_secs).sum();
        let outcome = ScenarioOutcome {
            scenario: scoring.scenario.name.clone(),
            total_degradation: reports.iter().map(|r| r.degradation).sum(),
            kills: kills.iter().sum(),
            stall_fraction: if wall > 0.0 && n > 0 {
                total_stall / (wall * n as f64)
            } else {
                0.0
            },
            worst_recovery_secs: reports
                .iter()
                .map(|r| r.worst_recovery_secs)
                .fold(0.0, f64::max),
            reports,
            blame: scoring.blame,
            causal: scoring.causal,
        };
        (outcome, machine)
    }
}

/// Runs `rt` for `duration` of simulated time, as `TmoRuntime::run`
/// does, pushing the host time of each `TmoRuntime::tick` to `samples` in
/// ns. Invariants are read between ticks, outside the timed call.
pub fn run_timed(
    rt: &mut TmoRuntime,
    duration: SimDuration,
    samples: &mut Vec<u32>,
) -> Result<(), String> {
    let deadline = rt.machine().now() + duration;
    let mut steps = 0u64;
    while rt.machine().now() < deadline {
        let t = Instant::now();
        rt.tick();
        samples.push(t.elapsed().as_nanos().min(u32::MAX as u128) as u32);
        steps += 1;
        if steps.is_multiple_of(INVARIANT_EVERY) {
            check_invariants(rt.machine())?;
        }
    }
    check_invariants(rt.machine())
}

/// The runtime `run_scenario` ticks, set up as it sets it up: the
/// scenario engine as modulator, causal tracking on, Senpai and oomd.
/// Stepping it leaves the machine as `run_scenario` leaves it, minus the
/// final `clear_modulator`; only the per-tick scoring is left out.
pub fn scenario_runtime(
    mut machine: Machine,
    scenario: &Scenario,
    cfg: &ScenarioRunConfig,
) -> TmoRuntime {
    let engine = ScenarioEngine::new(scenario.clone(), machine.config().seed);
    machine.set_modulator(Box::new(engine));
    machine.enable_causal_tracking();
    let rt = TmoRuntime::with_senpai(machine, cfg.senpai.clone());
    match cfg.oomd.clone() {
        Some(oomd) => rt.with_oomd(oomd),
        None => rt,
    }
}

fn kill_counts(recorder: &Recorder, names: &[String]) -> Vec<u64> {
    names
        .iter()
        .map(|name| {
            recorder
                .series(&format!("{name}.killed"))
                .map_or(0, |s| s.len() as u64)
        })
        .collect()
}

/// Invariants read from public stats: resident memory plus the zswap
/// pool fits in DRAM, and PSI `some` time is at least `full` time for
/// every resource, on the host and on every container.
pub fn check_invariants(m: &Machine) -> Result<(), String> {
    let g = m.mm().global_stat();
    if g.resident_bytes + g.zswap_pool_bytes > g.total_dram {
        return Err(format!(
            "at {:?}: resident {} + zswap pool {} exceeds DRAM {}",
            m.now(),
            g.resident_bytes,
            g.zswap_pool_bytes,
            g.total_dram
        ));
    }
    let groups = std::iter::once(("host".to_string(), m.host_psi())).chain(
        m.container_ids()
            .map(|id| (m.container(id).name().to_string(), m.container(id).psi())),
    );
    for (name, psi) in groups {
        for r in Resource::ALL {
            let s = psi.snapshot(r);
            if s.some_total < s.full_total {
                return Err(format!(
                    "at {:?}: {name} {r:?} PSI some {:?} < full {:?}",
                    m.now(),
                    s.some_total,
                    s.full_total
                ));
            }
        }
    }
    Ok(())
}

/// Digest of everything a host exposes publicly at the end of a run:
/// clock, memory and backend counters, every PSI total and average, and
/// every recorded series sample.
pub fn machine_digest(m: &Machine) -> u64 {
    let mut d = Digest::default();
    d.u64(m.now().as_nanos());
    let g = m.mm().global_stat();
    for v in [
        g.resident_bytes.as_u64(),
        g.zswap_pool_bytes.as_u64(),
        g.free_bytes.as_u64(),
        g.direct_reclaims,
        g.alloc_failures,
        g.lost_loads,
    ] {
        d.u64(v);
    }
    if let Some(b) = m.mm().swap_stats() {
        for v in [
            b.reads,
            b.writes,
            b.bytes_read.as_u64(),
            b.bytes_written.as_u64(),
            b.pages_stored,
            b.bytes_stored.as_u64(),
            b.io_errors,
            b.retries,
            b.failovers,
            b.faults_injected,
        ] {
            d.u64(v);
        }
    }
    let psi = |d: &mut Digest, p: &tmo_psi::PsiGroup| {
        for r in Resource::ALL {
            let s = p.snapshot(r);
            d.u64(s.some_total.as_nanos());
            d.u64(s.full_total.as_nanos());
            d.f64(s.some_avg10);
            d.f64(s.full_avg300);
        }
    };
    psi(&mut d, m.host_psi());
    for id in m.container_ids() {
        let c = m.container(id);
        let s = m.mm().cgroup_stat(c.cgroup());
        for v in [
            u64::from(c.is_alive()),
            s.anon_resident.as_u64(),
            s.file_resident.as_u64(),
            s.anon_offloaded.as_u64(),
            s.file_evicted.as_u64(),
            s.refaults_total,
            s.swapins_total,
            s.swapouts_total,
            s.lost_loads,
        ] {
            d.u64(v);
        }
        psi(&mut d, c.psi());
    }
    for series in m.recorder().iter() {
        d.str(series.name());
        for s in series.samples() {
            d.f64(s.time_secs);
            d.f64(s.value);
        }
    }
    d.value()
}

/// Per-host simulated results: savings and memory pressure.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimResult {
    /// `host_savings(..).total_fraction()`.
    pub saved_frac: f64,
    /// Memory `some_total` summed over containers, seconds.
    pub mem_some_s: f64,
    /// Containers on the host.
    pub containers: usize,
    /// Simulated seconds the host ran.
    pub sim_s: f64,
}

impl SimResult {
    /// Reads the simulated results of a finished host.
    pub fn of(m: &Machine) -> Self {
        SimResult {
            saved_frac: host_savings(m).total_fraction(),
            mem_some_s: m
                .container_ids()
                .map(|id| {
                    let psi = m.container(id).psi();
                    psi.snapshot(Resource::Memory).some_total.as_secs_f64()
                })
                .sum(),
            containers: m.container_count(),
            sim_s: m.now().as_secs_f64(),
        }
    }
}
