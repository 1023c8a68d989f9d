//! Server CPU time and peak memory from `/proc/<pid>`.

/// `/proc` reports CPU time in USER_HZ ticks, which Linux fixes at 100
/// per second for every architecture it exposes to user space.
pub const TICKS_PER_SEC: f64 = 100.0;

/// User and system CPU ticks of one process (all threads).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CpuTicks {
    /// `utime`, field 14 of `/proc/<pid>/stat`.
    pub user: u64,
    /// `stime`, field 15.
    pub system: u64,
}

impl CpuTicks {
    /// Ticks spent between `earlier` and `self`.
    pub fn since(self, earlier: CpuTicks) -> u64 {
        (self.user + self.system).saturating_sub(earlier.user + earlier.system)
    }
}

/// Parses the text of `/proc/<pid>/stat`. The command name (field 2)
/// is parenthesised and may itself hold spaces or parentheses, so the
/// fields are counted from the last `)`.
pub fn parse_stat(text: &str) -> Option<CpuTicks> {
    let rest = &text[text.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state): utime is field 14, stime 15.
    Some(CpuTicks {
        user: fields.get(11)?.parse().ok()?,
        system: fields.get(12)?.parse().ok()?,
    })
}

/// CPU ticks of process `pid` so far.
pub fn cpu_ticks(pid: u32) -> Option<CpuTicks> {
    parse_stat(&std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?)
}

/// Parses the `VmHWM` (peak resident set) line of `/proc/<pid>/status`,
/// in kB.
pub fn parse_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set of process `pid`, in kB.
pub fn hwm_kb(pid: u32) -> Option<u64> {
    parse_hwm_kb(&std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?)
}

/// `(steal, total)` host CPU ticks from the first line of `/proc/stat`
/// (user through steal; guest time is already inside user).
pub fn parse_host_ticks(stat: &str) -> Option<(u64, u64)> {
    let fields = stat.lines().next()?.strip_prefix("cpu ")?;
    let v: Vec<u64> = fields
        .split_whitespace()
        .take(8)
        .map(|x| x.parse().ok())
        .collect::<Option<_>>()?;
    Some((*v.get(7)?, v.iter().sum()))
}

/// Host CPU ticks so far: `(steal, total)`.
pub fn host_ticks() -> Option<(u64, u64)> {
    parse_host_ticks(&std::fs::read_to_string("/proc/stat").ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "4242 (dense st) x)) S 1 4242 4242 0 -1 4194560 2157 0 0 0 \
                        731 95 0 0 20 0 5 0 123456 98304000 2890 18446744073709551615";

    #[test]
    fn stat_fields_are_counted_past_the_command_name() {
        assert_eq!(
            parse_stat(STAT),
            Some(CpuTicks {
                user: 731,
                system: 95
            })
        );
        assert_eq!(parse_stat("1 (short) S 1 2"), None);
    }

    #[test]
    fn tick_deltas_cover_user_and_system() {
        let before = CpuTicks {
            user: 700,
            system: 90,
        };
        let after = parse_stat(STAT).unwrap();
        assert_eq!(after.since(before), 36);
        assert_eq!(before.since(after), 0);
        assert_eq!(after.since(before) as f64 / TICKS_PER_SEC, 0.36);
    }

    #[test]
    fn host_ticks_split_out_steal() {
        let stat = "cpu  100 0 50 800 10 0 5 35 7 0\ncpu0 1 2 3\n";
        assert_eq!(parse_host_ticks(stat), Some((35, 1000)));
        assert_eq!(parse_host_ticks("intr 1 2"), None);
    }

    #[test]
    fn own_process_is_readable() {
        let pid = std::process::id();
        assert!(cpu_ticks(pid).is_some());
        assert!(hwm_kb(pid).unwrap() > 0);
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t  4321 kB\n";
        assert_eq!(parse_hwm_kb(status), Some(4321));
    }
}
