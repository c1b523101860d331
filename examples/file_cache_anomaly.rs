//! The §5.1 deployment anecdote: "TMO helped detect that an application
//! unexpectedly consumed a large amount of file cache due to its
//! repeated execution of a self-extracting binary ... We changed the
//! application to extract the binary ahead of time, which resulted in
//! 70% memory savings for the application!"
//!
//! This example replays the story: the buggy variant churns write-once
//! file pages; TMO's per-cgroup accounting makes the anomaly obvious
//! (huge file cache, no refaults); file-only Senpai contains it; and the
//! fixed variant shows the savings.
//!
//! ```text
//! cargo run --release --example file_cache_anomaly
//! ```

use tmo::prelude::*;
use tmo_mm::render::render_memory_stat;
use tmo_repro::{tmo, tmo_mm};

/// The buggy binary: 1 MiB/s of write-once file cache that is never
/// read again.
#[derive(Debug)]
struct SelfExtractingBinary;

impl WorkloadModulator for SelfExtractingBinary {
    fn churn_bytes_per_sec(&self, _container: usize, _now: SimTime) -> ByteSize {
        ByteSize::from_mib(1)
    }
}

fn run_variant(buggy: bool, senpai: bool) -> (f64, f64, u64) {
    let mut machine = Machine::new(MachineConfig {
        dram: ByteSize::from_mib(512),
        seed: 51,
        ..MachineConfig::default()
    });
    let id = machine.add_container(&apps::analytics().with_mem_total(ByteSize::from_mib(96)));
    if buggy {
        machine.set_modulator(Box::new(SelfExtractingBinary));
    }
    let mut rt = if senpai {
        TmoRuntime::with_senpai(
            machine,
            SenpaiConfig {
                write_limit_mbps: None,
                ..SenpaiConfig::accelerated(80.0)
            },
        )
    } else {
        TmoRuntime::without_controller(machine)
    };
    rt.run(SimDuration::from_mins(4));
    let m = rt.machine();
    let stat = m.mm().cgroup_stat(m.container(id).cgroup());
    let page = m.config().page_size;
    (
        stat.resident().to_bytes(page).as_mib(),
        stat.file_resident.to_bytes(page).as_mib(),
        stat.refaults_total,
    )
}

fn main() {
    println!("the self-extracting-binary anomaly (4 simulated minutes each):\n");

    let (buggy_res, buggy_file, buggy_ref) = run_variant(true, false);
    println!(
        "buggy, no TMO:      resident {buggy_res:6.0} MiB  file cache {buggy_file:6.0} MiB  \
         refaults {buggy_ref}"
    );
    println!(
        "  -> the anomaly signature TMO's observability exposes: a file cache\n\
         far beyond the footprint with ~zero refaults (nothing is re-read)\n"
    );

    let (contained_res, contained_file, _) = run_variant(true, true);
    println!(
        "buggy, file-only TMO: resident {contained_res:4.0} MiB  file cache {contained_file:6.0} MiB"
    );
    println!("  -> Senpai continuously trims the never-read pages; the leak is contained\n");

    let (fixed_res, fixed_file, _) = run_variant(false, true);
    println!("fixed + TMO:        resident {fixed_res:6.0} MiB  file cache {fixed_file:6.0} MiB");
    let saved = 1.0 - fixed_res / buggy_res.max(1.0);
    println!(
        "\nfixing the extraction saved {:.0}% of the buggy variant's memory\n\
         (the paper's deployment reported 70%)",
        saved * 100.0
    );

    // Show the memory.stat view an operator would have diagnosed from.
    let mut machine = Machine::new(MachineConfig {
        dram: ByteSize::from_mib(512),
        seed: 52,
        ..MachineConfig::default()
    });
    let id = machine.add_container(&apps::analytics().with_mem_total(ByteSize::from_mib(96)));
    machine.set_modulator(Box::new(SelfExtractingBinary));
    machine.run(SimDuration::from_mins(2));
    println!("\nmemory.stat of the buggy container after two minutes:");
    let stat = machine.mm().cgroup_stat(machine.container(id).cgroup());
    for line in render_memory_stat(&stat, machine.config().page_size).lines() {
        println!("  {line}");
    }
}
