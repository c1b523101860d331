//! Cross-crate integration tests: the full TMO pipeline — workload →
//! kernel MM → PSI → Senpai → backend — exercised end to end.

use tmo::prelude::*;
use tmo_repro::{tmo, tmo_psi, tmo_scenarios, tmo_senpai, tmo_workload};

fn zswap_machine(dram_mib: u64, seed: u64) -> Machine {
    Machine::new(MachineConfig {
        dram: ByteSize::from_mib(dram_mib),
        swap: SwapKind::Zswap {
            capacity_fraction: 0.3,
            allocator: ZswapAllocator::Zsmalloc,
        },
        seed,
        ..MachineConfig::default()
    })
}

#[test]
fn full_pipeline_converges_to_mild_pressure() {
    let mut machine = zswap_machine(256, 11);
    let id =
        machine.add_container(&tmo_workload::apps::feed().with_mem_total(ByteSize::from_mib(128)));
    let mut rt = TmoRuntime::with_senpai(machine, SenpaiConfig::accelerated(40.0));
    rt.run(SimDuration::from_mins(4));

    let m = rt.machine();
    let saved = m.savings_fraction(id);
    assert!(saved > 0.08, "saved {saved}");
    // Pressure is non-zero (contention exists) but bounded: the paper's
    // "low but non-zero" operating point.
    let psi = m.container(id).psi().some_avg10(Resource::Memory);
    assert!(psi < 0.05, "runaway pressure {psi}");
    // Offloaded cold pages live in the zswap pool, costing compressed
    // bytes.
    let g = m.mm().global_stat();
    assert!(g.zswap_pool_bytes > ByteSize::ZERO);
    assert!(g.zswap_pool_bytes < ByteSize::from_mib(40));
}

#[test]
fn whole_stack_is_deterministic() {
    let run = |seed: u64| {
        let mut machine = zswap_machine(256, seed);
        let id = machine
            .add_container(&tmo_workload::apps::web().with_mem_total(ByteSize::from_mib(128)));
        let mut rt = TmoRuntime::with_senpai(machine, SenpaiConfig::accelerated(40.0));
        rt.run(SimDuration::from_mins(2));
        let m = rt.machine();
        let stat = m.mm().cgroup_stat(m.container(id).cgroup());
        (
            stat.resident().as_u64(),
            stat.swapins_total,
            stat.refaults_total,
            m.container(id).psi().snapshot(Resource::Memory).some_total,
        )
    };
    assert_eq!(run(99), run(99));
    assert_ne!(run(99), run(100), "different seeds should diverge");
}

#[test]
fn file_only_mode_never_touches_swap() {
    let mut machine = Machine::new(MachineConfig {
        dram: ByteSize::from_mib(256),
        swap: SwapKind::None,
        seed: 13,
        ..MachineConfig::default()
    });
    let id = machine
        .add_container(&tmo_workload::apps::analytics().with_mem_total(ByteSize::from_mib(128)));
    let mut rt = TmoRuntime::with_senpai(
        machine,
        SenpaiConfig {
            write_limit_mbps: None,
            ..SenpaiConfig::accelerated(40.0)
        },
    );
    rt.run(SimDuration::from_mins(3));
    let m = rt.machine();
    let stat = m.mm().cgroup_stat(m.container(id).cgroup());
    assert_eq!(stat.anon_offloaded.as_u64(), 0);
    assert_eq!(stat.swapouts_total, 0);
    // But file cache was still trimmed.
    assert!(
        stat.file_evicted.as_u64() > 0,
        "file-only mode should trim the page cache"
    );
}

#[test]
fn heterogeneous_backends_shift_the_offload_equilibrium() {
    // The paper's core adaptivity claim: the same controller offloads
    // more onto a faster backend.
    let run = |swap: SwapKind| {
        let mut machine = Machine::new(MachineConfig {
            dram: ByteSize::from_mib(256),
            swap,
            seed: 17,
            ..MachineConfig::default()
        });
        let id = machine
            .add_container(&tmo_workload::apps::web().with_mem_total(ByteSize::from_mib(160)));
        let mut rt = TmoRuntime::with_senpai(
            machine,
            SenpaiConfig {
                write_limit_mbps: None,
                ..SenpaiConfig::accelerated(40.0)
            },
        );
        rt.run(SimDuration::from_mins(4));
        rt.machine()
            .mm()
            .cgroup_stat(rt.machine().container(id).cgroup())
            .anon_offloaded
            .as_u64()
    };
    let on_zswap = run(SwapKind::Zswap {
        capacity_fraction: 0.3,
        allocator: ZswapAllocator::Zsmalloc,
    });
    let on_slow_ssd = run(SwapKind::Ssd(SsdModel::A)); // 9.3 ms p99
    assert!(
        on_zswap > on_slow_ssd,
        "zswap offload {on_zswap} should exceed slow-SSD offload {on_slow_ssd}"
    );
}

#[test]
fn multi_container_host_respects_priorities() {
    let mut machine = zswap_machine(512, 19);
    let relaxed = machine.add_container_with(
        &tmo_workload::tax::datacenter_tax(ByteSize::from_mib(512)),
        ContainerConfig {
            relaxed: true,
            ..ContainerConfig::default()
        },
    );
    let normal =
        machine.add_container(&tmo_workload::apps::feed().with_mem_total(ByteSize::from_mib(96)));
    let mut rt = TmoRuntime::with_senpai(machine, SenpaiConfig::accelerated(40.0));
    rt.run(SimDuration::from_mins(3));
    let m = rt.machine();
    assert!(m.savings_fraction(relaxed) > 0.05);
    assert!(m.savings_fraction(normal) > 0.02);
    // The relaxed-SLA tax container tolerates more pressure, so it
    // gives up a larger share of its footprint.
    assert!(m.savings_fraction(relaxed) > m.savings_fraction(normal));
}

#[test]
fn pressure_files_render_for_every_container() {
    let mut machine = zswap_machine(256, 23);
    let id =
        machine.add_container(&tmo_workload::apps::ads_a().with_mem_total(ByteSize::from_mib(96)));
    machine.reclaim(id, ByteSize::from_mib(40));
    machine.run(SimDuration::from_secs(30));
    let psi = machine.container(id).psi();
    for resource in [Resource::Memory, Resource::Io, Resource::Cpu] {
        let text = tmo_psi::render_pressure_file(&psi.snapshot(resource));
        assert!(text.starts_with("some avg10="), "{resource}: {text}");
        assert_eq!(text.lines().count(), 2);
    }
    // Memory pressure accumulated from the forced reclaim's swap-ins.
    assert!(psi.snapshot(Resource::Memory).some_total > SimDuration::ZERO);
}

#[test]
fn swap_capped_device_reports_exhaustion_to_senpai() {
    let dram = ByteSize::from_mib(256);
    let mut machine = Machine::new(MachineConfig {
        dram,
        // A zswap pool of only 3% of DRAM (7.68 MiB).
        swap: SwapKind::Zswap {
            capacity_fraction: 0.03,
            allocator: ZswapAllocator::Zsmalloc,
        },
        seed: 29,
        ..MachineConfig::default()
    });
    let id = machine
        .add_container(&tmo_workload::apps::analytics().with_mem_total(ByteSize::from_mib(160)));
    // Ask for far more anon offload than the pool can hold.
    machine.reclaim(id, ByteSize::from_mib(80));
    machine.run(SimDuration::from_secs(10));
    machine.reclaim(id, ByteSize::from_mib(80));
    let signal = machine.senpai_signal(id);
    assert!(
        signal.swap_full,
        "swap exhaustion must surface in the signal"
    );
    let pool = machine.mm().global_stat().zswap_pool_bytes;
    assert!(pool <= dram.mul_f64(0.03), "pool {pool}");
}

#[test]
fn oomd_kills_a_container_driven_functionally_out_of_memory() {
    use tmo_senpai::{OomdConfig, OomdMonitor};

    // A single-task container on a painfully slow SSD, with nearly all
    // of its memory force-reclaimed: every access becomes a ~ms stall,
    // so the lone task is fully stalled — sustained `full` pressure.
    let mut machine = Machine::new(MachineConfig {
        dram: ByteSize::from_mib(256),
        swap: SwapKind::Ssd(SsdModel::A), // 9.3 ms p99 reads
        seed: 31,
        ..MachineConfig::default()
    });
    let mut profile = tmo_workload::apps::cache_b().with_mem_total(ByteSize::from_mib(128));
    profile.tasks = 1;
    let id = machine.add_container(&profile);

    let mut oomd = OomdMonitor::new(OomdConfig {
        full_threshold: 0.10,
        sustain: SimDuration::from_secs(5),
    });
    // Keep the container thrashing: strip it to the bone repeatedly.
    let mut killed = false;
    for _ in 0..300 {
        machine.reclaim(id, ByteSize::from_mib(64));
        machine.tick();
        let full = machine.container(id).psi().full_avg10(Resource::Memory);
        if oomd.observe(0, full, machine.config().tick).is_some() {
            machine.kill_container(id);
            killed = true;
            break;
        }
    }
    assert!(
        killed,
        "sustained full pressure must trigger the kill policy"
    );
    assert!(!machine.is_alive(id));
    assert_eq!(
        machine
            .mm()
            .cgroup_stat(machine.container(id).cgroup())
            .resident()
            .as_u64(),
        0
    );
}

#[test]
fn runtime_with_oomd_spares_healthy_containers() {
    let mut machine = Machine::new(MachineConfig {
        dram: ByteSize::from_mib(256),
        swap: SwapKind::Zswap {
            capacity_fraction: 0.3,
            allocator: ZswapAllocator::Zsmalloc,
        },
        seed: 37,
        ..MachineConfig::default()
    });
    machine.add_container(&tmo_workload::apps::feed().with_mem_total(ByteSize::from_mib(128)));
    let mut rt = TmoRuntime::with_senpai(machine, SenpaiConfig::accelerated(40.0))
        .with_oomd(tmo_senpai::OomdConfig::default());
    rt.run(SimDuration::from_mins(2));
    // Senpai's mild `some` pressure never approaches the `full` kill
    // threshold: the workload survives and still saves memory.
    assert!(rt.machine().is_alive(tmo::ContainerId(0)));
    assert!(rt.oomd().expect("attached").kills().is_empty());
    assert!(rt.machine().savings_fraction(tmo::ContainerId(0)) > 0.05);
}

#[test]
fn host_psi_aggregates_all_containers() {
    let mut machine = zswap_machine(512, 59);
    let a =
        machine.add_container(&tmo_workload::apps::feed().with_mem_total(ByteSize::from_mib(128)));
    let b =
        machine.add_container(&tmo_workload::apps::ads_a().with_mem_total(ByteSize::from_mib(128)));
    machine.reclaim(a, ByteSize::from_mib(48));
    machine.reclaim(b, ByteSize::from_mib(48));
    machine.run(SimDuration::from_secs(30));
    let host = machine.host_psi().snapshot(Resource::Memory).some_total;
    let ca = machine
        .container(a)
        .psi()
        .snapshot(Resource::Memory)
        .some_total;
    let cb = machine
        .container(b)
        .psi()
        .snapshot(Resource::Memory)
        .some_total;
    // Host-level `some` is a union over all tasks: at least the larger
    // container's total, at most the sum.
    assert!(host > SimDuration::ZERO);
    assert!(host >= ca.max(cb), "host {host} vs max({ca}, {cb})");
    assert!(host <= ca + cb, "host {host} vs sum {}", ca + cb);
}

#[test]
fn diurnal_load_modulates_memory_behaviour() {
    use tmo_scenarios::prelude::*;

    // A compressed 4-minute "day": demand troughs at 20% of peak.
    let mut machine = Machine::new(MachineConfig {
        dram: ByteSize::from_mib(256),
        seed: 61,
        ..MachineConfig::default()
    });
    let id =
        machine.add_container(&tmo_workload::apps::feed().with_mem_total(ByteSize::from_mib(128)));
    let day = Scenario::new("day", "one compressed day").with_event(
        Target::All,
        Window::always(),
        EventKind::Diurnal {
            trough: 0.2,
            period: SimDuration::from_secs(240),
        },
    );
    machine.set_modulator(Box::new(ScenarioEngine::new(day, 61)));
    // Collect access counts over the day.
    let mut trough_accesses = 0u64;
    let mut peak_accesses = 0u64;
    let deadline = machine.now() + SimDuration::from_secs(240);
    while machine.now() < deadline {
        machine.tick();
        let t = machine.now().as_secs_f64() % 240.0;
        let accesses = machine.container(id).last_tick().accesses;
        if !(60.0..=180.0).contains(&t) {
            trough_accesses += accesses; // night halves
        } else {
            peak_accesses += accesses; // midday half
        }
    }
    assert!(
        peak_accesses as f64 > trough_accesses as f64 * 1.5,
        "peak {peak_accesses} vs trough {trough_accesses}"
    );
}
