//! The Toto benchmark: four workloads run through the same scenario →
//! fleet → store path users take, with end-to-end metrics measured with
//! tracing off and a per-layer split of host time measured in a
//! separate traced run.
//!
//! All timing happens here, outside the simulator. The simulator is
//! reached only through public extension points: the
//! `toto_trace::TraceSink` trait ([`layer`]), `FleetTask`
//! ([`workloads`]) and direct calls to public layer functions
//! ([`probes`]).

pub mod compare;
pub mod layer;
pub mod metrics;
pub mod probes;
pub mod run;
pub mod workloads;

/// First quartile, median and third quartile of `values`, by the
/// method of Python's `statistics.quantiles(values, n=4)` (the
/// "exclusive" method). One value is its own quartiles; no values give
/// `None`.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let n = data.len();
    match n {
        0 => return None,
        1 => return Some([data[0]; 3]),
        _ => {}
    }
    let m = n as i64 + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4i64) {
        let j = (i * m / 4).clamp(1, n as i64 - 1);
        // Negative when the clamp moved j up: Python extrapolates then.
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

/// `a / b`, or 0 when `b` is 0 (a ratio over work that did not happen).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// User plus system CPU time of this process so far, in seconds, from
/// `/proc/self/stat` (10 ms resolution; includes threads that exited).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 =
        fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime");
    // USER_HZ is 100 on every Linux architecture this runs on.
    ticks as f64 / 100.0
}

/// Peak resident set size of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kib: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("status has a VmHWM line");
    kib as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[4.0]), Some([4.0; 3]));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn process_readings_are_positive() {
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mib() > 0.0);
    }
}
