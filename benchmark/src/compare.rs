//! `compare A.json B.json`: the tolerance gate between two result files.

use crate::json::{self, Value};
use crate::spec::{self, Better};
use std::path::Path;
use std::process::ExitCode;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a comparison: the median and the min–max spread behind it.
#[derive(Debug, Clone, Copy)]
pub struct Side {
    pub value: f64,
    pub min: f64,
    pub max: f64,
}

impl Side {
    fn spread(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            (self.max - self.min).abs() / self.value.abs()
        }
    }
}

/// `unresolved` when either side's own min–max spread is wider than the
/// bound (the runs cannot tell a change that small), `regressed` when B is
/// worse than A by more than the bound, else `ok`.
pub fn judge(a: Side, b: Side, better: Better, bound: f64) -> Verdict {
    if a.spread() > bound || b.spread() > bound {
        return Verdict::Unresolved;
    }
    let worse = match better {
        Better::Lower => (b.value - a.value) / a.value.abs(),
        Better::Higher => (a.value - b.value) / a.value.abs(),
    };
    if worse > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn side(metric: &Value) -> Option<Side> {
    let value = metric.get("value")?.as_f64()?;
    let or_value = |key: &str| metric.get(key).and_then(Value::as_f64).unwrap_or(value);
    Some(Side {
        value,
        min: or_value("min"),
        max: or_value("max"),
    })
}

fn load(path: &Path) -> Result<Value, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("parse {}: {e}", path.display()))
}

fn workload<'a>(result: &'a Value, name: &str) -> Option<&'a Value> {
    result
        .get("workloads")?
        .as_arr()?
        .iter()
        .find(|w| w.get("name").and_then(Value::as_str) == Some(name))
}

pub fn compare_files(a_path: &Path, b_path: &Path) -> Result<ExitCode, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    println!("A = {}   B = {}", a_path.display(), b_path.display());
    println!(
        "{:<22} {:<20} {:>14} {:>14} {:>9}  {:>6}  verdict",
        "workload", "metric", "A median", "B median", "B/A", "bound"
    );
    let mut regressed = 0usize;
    for (name, _) in spec::WORKLOADS {
        let (Some(wa), Some(wb)) = (workload(&a, name), workload(&b, name)) else {
            return Err(format!("workload {name} missing from a result file"));
        };
        for m in spec::END_TO_END {
            let pick = |w: &Value| w.get("end_to_end")?.get(m.name).and_then(side);
            let (Some(sa), Some(sb)) = (pick(wa), pick(wb)) else {
                return Err(format!(
                    "{name}: metric {} missing from a result file",
                    m.name
                ));
            };
            let verdict = judge(sa, sb, m.better, m.bound);
            regressed += usize::from(verdict == Verdict::Regressed);
            println!(
                "{:<22} {:<20} {:>14.6} {:>14.6} {:>9.4}  {:>5.1}%  {} ({} is better)",
                name,
                m.name,
                sa.value,
                sb.value,
                sb.value / sa.value,
                m.bound * 100.0,
                verdict.label(),
                m.better.label(),
            );
        }
        let failed = |w: &Value| w.get("failed").and_then(Value::as_f64).unwrap_or(0.0);
        if failed(wb) > failed(wa) {
            regressed += 1;
            println!(
                "{name:<22} failed operations rose from {} to {}: regressed",
                failed(wa),
                failed(wb)
            );
        }
    }
    println!("{regressed} regressed");
    Ok(if regressed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tight(value: f64) -> Side {
        Side {
            value,
            min: value * 0.99,
            max: value * 1.01,
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        assert_eq!(
            judge(tight(10.0), tight(9.5), Better::Higher, 0.10),
            Verdict::Ok
        );
        assert_eq!(
            judge(tight(10.0), tight(8.5), Better::Higher, 0.10),
            Verdict::Regressed
        );
        assert_eq!(
            judge(tight(10.0), tight(12.0), Better::Higher, 0.10),
            Verdict::Ok
        );
        assert_eq!(
            judge(tight(10.0), tight(11.5), Better::Lower, 0.10),
            Verdict::Regressed
        );
        let wide = Side {
            value: 10.0,
            min: 8.0,
            max: 12.0,
        };
        assert_eq!(
            judge(wide, tight(5.0), Better::Higher, 0.10),
            Verdict::Unresolved
        );
    }
}
