//! `memory.stat`-style text rendering.
//!
//! Production Senpai reads cgroup state from text control files; this
//! renders the simulator's [`CgroupStat`] in that shape so tooling (and
//! tests) can consume the same interface.

use tmo_sim::ByteSize;

use crate::stats::CgroupStat;

/// Renders a `memory.stat`-style file for one cgroup: byte counts for
/// the resident pools and cumulative event counters, one `key value`
/// pair per line, in a stable order.
///
/// # Example
///
/// ```
/// use tmo_mm::{MemoryManager, MmConfig, PageKind};
/// use tmo_mm::render::render_memory_stat;
/// use tmo_sim::SimTime;
///
/// let mut mm = MemoryManager::new(MmConfig::default());
/// let cg = mm.create_cgroup("web");
/// mm.alloc_pages(cg, PageKind::Anon, 4, SimTime::ZERO).expect("fits");
/// let text = render_memory_stat(&mm.cgroup_stat(cg), mm.page_size());
/// assert!(text.starts_with("anon 65536\n"));
/// assert!(text.contains("pswpin 0"));
/// ```
pub fn render_memory_stat(stat: &CgroupStat, page_size: ByteSize) -> String {
    let bytes = |pages: tmo_sim::PageCount| pages.to_bytes(page_size).as_u64();
    format!(
        "anon {}\nfile {}\nswapped {}\nfile_evicted {}\nworkingset_refault_file {}\npswpin {}\npswpout {}\n",
        bytes(stat.anon_resident),
        bytes(stat.file_resident),
        bytes(stat.anon_offloaded),
        bytes(stat.file_evicted),
        stat.refaults_total,
        stat.swapins_total,
        stat.swapouts_total,
    )
}

/// Parses one `key value` line of a `memory.stat`-style file, exactly
/// as [`render_memory_stat`] writes it: a non-empty key, one space, and
/// a decimal value of ASCII digits only. Anything else is rejected.
pub fn parse_stat_line(line: &str) -> Option<(&str, u64)> {
    let (key, value) = line.split_once(' ')?;
    if key.is_empty() || value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    Some((key, value.parse().ok()?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::{MemoryManager, MmConfig};
    use crate::page::PageKind;
    use tmo_sim::{ByteSize, SimTime};

    fn mm_with_pages() -> (MemoryManager, crate::cgroup::CgroupId) {
        let mut mm = MemoryManager::new(MmConfig {
            page_size: ByteSize::from_kib(4),
            total_dram: ByteSize::from_mib(1),
            ..MmConfig::default()
        });
        let cg = mm.create_cgroup("t");
        mm.alloc_pages(cg, PageKind::Anon, 3, SimTime::ZERO)
            .expect("fits");
        mm.alloc_pages(cg, PageKind::File, 5, SimTime::ZERO)
            .expect("fits");
        (mm, cg)
    }

    #[test]
    fn renders_byte_counts() {
        let (mm, cg) = mm_with_pages();
        let text = render_memory_stat(&mm.cgroup_stat(cg), mm.page_size());
        assert!(text.contains("anon 12288"));
        assert!(text.contains("file 20480"));
        assert!(text.contains("swapped 0"));
    }

    #[test]
    fn counters_appear_after_reclaim() {
        let (mut mm, cg) = mm_with_pages();
        mm.reclaim(cg, ByteSize::from_kib(8));
        let text = render_memory_stat(&mm.cgroup_stat(cg), mm.page_size());
        assert!(text.contains("file_evicted 8192"), "{text}");
    }

    #[test]
    fn lines_round_trip_through_the_parser() {
        let (mm, cg) = mm_with_pages();
        let text = render_memory_stat(&mm.cgroup_stat(cg), mm.page_size());
        for line in text.lines() {
            let (key, value) = parse_stat_line(line).expect("parses");
            assert!(!key.is_empty());
            if key == "anon" {
                assert_eq!(value, 12288);
            }
        }
        assert!(parse_stat_line("garbage").is_none());
        assert!(parse_stat_line("key notanumber").is_none());
        assert!(parse_stat_line(" 5").is_none(), "empty key");
        assert!(parse_stat_line("anon +5").is_none(), "sign");
        assert!(parse_stat_line("anon  5").is_none(), "two spaces");
        assert!(parse_stat_line("anon 5 ").is_none(), "trailing space");
        assert!(parse_stat_line("anon  5 ").is_none());
        assert!(parse_stat_line("anon ").is_none(), "empty value");
        assert!(
            parse_stat_line("anon 18446744073709551616").is_none(),
            "overflow"
        );
        assert_eq!(parse_stat_line("anon 5"), Some(("anon", 5)));
    }
}
