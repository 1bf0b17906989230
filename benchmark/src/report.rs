//! The result schema: what one measuring process reports
//! ([`ProcessReport`]) and what `wavebench run` writes and `wavebench
//! compare` reads ([`RunFile`]). Both carry the machine stamp.

use wavesim_json::Value;

use crate::metrics;
use crate::stats::Summary;

/// One named value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

/// One output check, folded over the repeats it ran in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckLine {
    pub name: String,
    /// Times it ran.
    pub ran: u64,
    /// Times it failed.
    pub failed: u64,
    /// What was wrong the first time it failed.
    pub detail: String,
}

/// What one measuring process found: `wavebench --workload ...`.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessReport {
    pub stamp: Value,
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    /// Timed phases measured (rounds, for a traced process).
    pub repeats: u64,
    pub attempted: u64,
    pub failed: u64,
    pub fingerprint: u64,
    pub checks: Vec<CheckLine>,
    /// End-to-end metrics of an untraced process, per-layer of a traced.
    pub metrics: Vec<Metric>,
}

fn hex(x: u64) -> Value {
    format!("{x:#018x}").into()
}

fn parse_hex(v: &Value) -> Option<u64> {
    u64::from_str_radix(v.as_str()?.strip_prefix("0x")?, 16).ok()
}

fn metrics_to_json(metrics: &[Metric]) -> Value {
    Value::Obj(
        metrics
            .iter()
            .map(|m| {
                let v = Value::obj(vec![
                    ("value", m.value.into()),
                    ("unit", m.unit.as_str().into()),
                ]);
                (m.name.clone(), v)
            })
            .collect(),
    )
}

fn metrics_from_json(v: &Value) -> Option<Vec<Metric>> {
    let Value::Obj(pairs) = v else { return None };
    pairs
        .iter()
        .map(|(name, m)| {
            Some(Metric {
                name: name.clone(),
                value: m["value"].as_f64()?,
                unit: m["unit"].as_str()?.to_string(),
            })
        })
        .collect()
}

impl ProcessReport {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.failed == 0)
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    pub fn to_json(&self) -> Value {
        let checks = self
            .checks
            .iter()
            .map(|c| {
                Value::obj(vec![
                    ("name", c.name.as_str().into()),
                    ("ran", c.ran.into()),
                    ("failed", c.failed.into()),
                    ("detail", c.detail.as_str().into()),
                ])
            })
            .collect();
        Value::obj(vec![
            ("schema", "wavebench-process-1".into()),
            ("stamp", self.stamp.clone()),
            ("workload", self.workload.as_str().into()),
            ("seed", self.seed.into()),
            ("seconds", self.seconds.into()),
            ("trace", self.trace.into()),
            ("smoke", self.smoke.into()),
            ("repeats", self.repeats.into()),
            ("correct", self.correct().into()),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            ("sim_fingerprint", hex(self.fingerprint)),
            ("checks", Value::Arr(checks)),
            ("metrics", metrics_to_json(&self.metrics)),
        ])
    }

    pub fn from_json(v: &Value) -> Result<Self, String> {
        let parse = || -> Option<Self> {
            let checks = v["checks"]
                .as_array()?
                .iter()
                .map(|c| {
                    Some(CheckLine {
                        name: c["name"].as_str()?.to_string(),
                        ran: c["ran"].as_u64()?,
                        failed: c["failed"].as_u64()?,
                        detail: c["detail"].as_str()?.to_string(),
                    })
                })
                .collect::<Option<_>>()?;
            Some(ProcessReport {
                stamp: v["stamp"].clone(),
                workload: v["workload"].as_str()?.to_string(),
                seed: v["seed"].as_u64()?,
                seconds: v["seconds"].as_f64()?,
                trace: v["trace"].as_bool()?,
                smoke: v["smoke"].as_bool()?,
                repeats: v["repeats"].as_u64()?,
                attempted: v["attempted"].as_u64()?,
                failed: v["failed"].as_u64()?,
                fingerprint: parse_hex(&v["sim_fingerprint"])?,
                checks,
                metrics: metrics_from_json(&v["metrics"])?,
            })
        };
        if v["schema"].as_str() != Some("wavebench-process-1") {
            return Err("not a wavebench-process-1 document".into());
        }
        parse().ok_or_else(|| "malformed wavebench-process-1 document".into())
    }

    /// The line the benchmark contract asks for, last on standard output:
    /// every per-layer metric of a traced process, and of an untraced one
    /// exactly the end-to-end metrics `BENCHMARK.json` lists.
    pub fn contract_line(&self) -> String {
        let listed: Vec<Metric> = self
            .metrics
            .iter()
            .filter(|m| self.trace || metrics::end_to_end(&m.name).is_some_and(|e| e.everywhere))
            .cloned()
            .collect();
        Value::obj(vec![
            ("correct", self.correct().into()),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            ("metrics", metrics_to_json(&listed)),
        ])
        .compact()
    }
}

/// One end-to-end metric of one workload over the repeats of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    pub name: String,
    pub unit: String,
    /// One value per repeat (each the median of that process's phases).
    pub values: Vec<f64>,
}

impl Series {
    pub fn summary(&self) -> Option<Summary> {
        Summary::of(&self.values)
    }
}

/// One workload's part of a [`RunFile`].
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    pub name: String,
    /// The one fingerprint every repeat and the traced loop agreed on.
    pub fingerprint: u64,
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: Vec<Series>,
    /// From the traced run.
    pub per_layer: Vec<Metric>,
}

/// What `wavebench run` writes.
#[derive(Debug, Clone, PartialEq)]
pub struct RunFile {
    pub stamp: Value,
    pub seed: u64,
    pub repeats: u64,
    pub seconds: f64,
    pub smoke: bool,
    pub workloads: Vec<WorkloadResult>,
}

impl RunFile {
    pub fn to_json(&self) -> Value {
        let workloads = self
            .workloads
            .iter()
            .map(|w| {
                let end_to_end = w
                    .end_to_end
                    .iter()
                    .map(|s| {
                        let mut pairs = vec![
                            ("unit", s.unit.as_str().into()),
                            ("values", s.values.clone().into()),
                        ];
                        if let Some(m) = metrics::end_to_end(&s.name) {
                            pairs.push(("better", m.better.as_str().into()));
                            pairs.push(("bound", m.bound.into()));
                        }
                        // Derived from `values`; written for readers,
                        // ignored on load.
                        if let Some(sum) = s.summary() {
                            pairs.extend([
                                ("n", (sum.n as u64).into()),
                                ("min", sum.min.into()),
                                ("q1", sum.q1.into()),
                                ("median", sum.median.into()),
                                ("q3", sum.q3.into()),
                                ("max", sum.max.into()),
                            ]);
                        }
                        (s.name.clone(), Value::obj(pairs))
                    })
                    .collect();
                Value::obj(vec![
                    ("name", w.name.as_str().into()),
                    ("sim_fingerprint", hex(w.fingerprint)),
                    ("attempted", w.attempted.into()),
                    ("failed", w.failed.into()),
                    ("end_to_end", Value::Obj(end_to_end)),
                    ("per_layer", metrics_to_json(&w.per_layer)),
                ])
            })
            .collect();
        Value::obj(vec![
            ("schema", "wavebench-run-1".into()),
            ("stamp", self.stamp.clone()),
            ("seed", self.seed.into()),
            ("repeats", self.repeats.into()),
            ("seconds", self.seconds.into()),
            ("smoke", self.smoke.into()),
            ("workloads", Value::Arr(workloads)),
        ])
    }

    pub fn from_json(v: &Value) -> Result<Self, String> {
        let workload = |w: &Value| -> Option<WorkloadResult> {
            let Value::Obj(series) = &w["end_to_end"] else {
                return None;
            };
            let end_to_end = series
                .iter()
                .map(|(name, s)| {
                    Some(Series {
                        name: name.clone(),
                        unit: s["unit"].as_str()?.to_string(),
                        values: s["values"]
                            .as_array()?
                            .iter()
                            .map(Value::as_f64)
                            .collect::<Option<_>>()?,
                    })
                })
                .collect::<Option<_>>()?;
            Some(WorkloadResult {
                name: w["name"].as_str()?.to_string(),
                fingerprint: parse_hex(&w["sim_fingerprint"])?,
                attempted: w["attempted"].as_u64()?,
                failed: w["failed"].as_u64()?,
                end_to_end,
                per_layer: metrics_from_json(&w["per_layer"])?,
            })
        };
        let parse = || -> Option<Self> {
            Some(RunFile {
                stamp: v["stamp"].clone(),
                seed: v["seed"].as_u64()?,
                repeats: v["repeats"].as_u64()?,
                seconds: v["seconds"].as_f64()?,
                smoke: v["smoke"].as_bool()?,
                workloads: v["workloads"]
                    .as_array()?
                    .iter()
                    .map(workload)
                    .collect::<Option<_>>()?,
            })
        };
        if v["schema"].as_str() != Some("wavebench-run-1") {
            return Err("not a wavebench-run-1 document".into());
        }
        parse().ok_or_else(|| "malformed wavebench-run-1 document".into())
    }

    pub fn load(path: &str) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let v = Value::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        Self::from_json(&v).map_err(|e| format!("{path}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn process() -> ProcessReport {
        ProcessReport {
            stamp: crate::stamp::machine(),
            workload: "flow_wh".into(),
            seed: 131,
            seconds: 0.5,
            trace: false,
            smoke: true,
            repeats: 3,
            attempted: 1234,
            failed: 0,
            fingerprint: 0xfeed_f00d_dead_beef,
            checks: vec![CheckLine {
                name: "run is clean".into(),
                ran: 3,
                failed: 0,
                detail: String::new(),
            }],
            metrics: vec![
                Metric {
                    name: "wall_s".into(),
                    value: 0.898_123_456_789,
                    unit: "s".into(),
                },
                Metric {
                    name: "alloc_count".into(),
                    value: 123_456.0,
                    unit: "count".into(),
                },
                Metric {
                    name: "sim_cycles_per_s".into(),
                    value: 10_637.6,
                    unit: "1/s".into(),
                },
            ],
        }
    }

    #[test]
    fn process_report_round_trips_through_json() {
        let p = process();
        let text = p.to_json().compact();
        let back = ProcessReport::from_json(&Value::parse(&text).unwrap()).unwrap();
        assert_eq!(back, p);
        assert!(back.correct());
        assert_eq!(back.metric("wall_s"), Some(0.898_123_456_789));
        assert!(ProcessReport::from_json(&Value::parse("{}").unwrap()).is_err());

        let line = Value::parse(&p.contract_line()).unwrap();
        let Value::Obj(keys) = &line else { panic!() };
        let keys: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line["metrics"]["wall_s"]["unit"].as_str(), Some("s"));
        assert!(line["metrics"].get("alloc_count").is_some());
        assert!(
            line["metrics"].get("sim_cycles_per_s").is_none(),
            "not on every workload, so not in BENCHMARK.json"
        );
        assert_eq!(line["attempted"].as_u64(), Some(1234));
    }

    #[test]
    fn a_failed_check_makes_the_process_incorrect() {
        let mut p = process();
        p.checks[0].failed = 1;
        assert!(!p.correct());
        assert_eq!(p.to_json()["correct"].as_bool(), Some(false));
        let mut p = process();
        p.failed = 2;
        assert!(!p.correct());
    }

    #[test]
    fn run_file_round_trips_through_json() {
        let f = RunFile {
            stamp: crate::stamp::machine(),
            seed: 131,
            repeats: 5,
            seconds: 4.0,
            smoke: false,
            workloads: vec![WorkloadResult {
                name: "sat_clrp".into(),
                fingerprint: 0x0123_4567_89ab_cdef,
                attempted: 4305,
                failed: 0,
                end_to_end: vec![Series {
                    name: "wall_s".into(),
                    unit: "s".into(),
                    values: vec![1.339, 1.406, 1.33, 1.385, 1.442],
                }],
                per_layer: vec![Metric {
                    name: "network.scan_s".into(),
                    value: 1.025,
                    unit: "s".into(),
                }],
            }],
        };
        let json = f.to_json();
        assert_eq!(
            json["workloads"][0]["end_to_end"]["wall_s"]["median"].as_f64(),
            Some(1.385)
        );
        assert_eq!(
            json["workloads"][0]["end_to_end"]["wall_s"]["bound"].as_f64(),
            Some(0.25)
        );
        let back = RunFile::from_json(&Value::parse(&json.pretty()).unwrap()).unwrap();
        assert_eq!(back, f);
        assert!(RunFile::from_json(&process().to_json()).is_err());
    }
}
