//! The machine stamp carried by every output: which CPU, how many, which
//! compiler and profile, which commit, which benchmark version. Numbers
//! without it cannot be compared with anything.

use std::process::Command;

use wavesim_json::Value;

use crate::metrics::VERSION;

/// Everything about the box and the build that a timing depends on.
pub fn machine() -> Value {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu_model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or("unknown", |(_, v)| v.trim());
    let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    Value::obj(vec![
        ("benchmark_version", VERSION.into()),
        ("cpu_model", cpu_model.into()),
        ("cpus", (cpus as u64).into()),
        ("rustc", env!("WAVEBENCH_RUSTC").into()),
        ("profile", env!("WAVEBENCH_PROFILE").into()),
        ("git_head", git_head().into()),
    ])
}

/// `git rev-parse HEAD` of the working directory; the driver's checkouts
/// are not repositories, and say so.
fn git_head() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(
            || "not a git checkout".to_string(),
            |s| s.trim().to_string(),
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamp_names_the_box_and_the_build() {
        let s = machine();
        for key in ["cpu_model", "rustc", "profile", "git_head"] {
            assert!(!s[key].as_str().unwrap().is_empty(), "{key}");
        }
        assert!(s["cpus"].as_u64().unwrap() >= 1);
        assert!(s["rustc"].as_str().unwrap().starts_with("rustc "));
        assert_eq!(s["benchmark_version"].as_str(), Some(VERSION));
    }
}
