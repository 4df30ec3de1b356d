//! The benchmark's declared contract — workloads and metric names, units
//! and directions — read from `BENCHMARK.json`, embedded at build time so
//! `--list` and the emission check can never drift from the file.

use tranvar_serve::json::{self, Json};

/// The repository's `BENCHMARK.json`.
pub const SPEC_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Clone, Debug)]
pub struct MetricDecl {
    pub name: String,
    pub unit: String,
    pub better: String,
    /// Allowed worsening as a share of the parent's median (end-to-end only).
    pub bound: Option<f64>,
}

#[derive(Clone, Debug)]
pub struct WorkloadDecl {
    pub name: String,
    pub why: String,
}

#[derive(Clone, Debug)]
pub struct Spec {
    pub workloads: Vec<WorkloadDecl>,
    pub end_to_end: Vec<MetricDecl>,
    pub per_layer: Vec<MetricDecl>,
}

/// The metric-name grammar: 1–64 of `[A-Za-z0-9_.-]`, starting with a
/// letter or digit.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn field<'a>(obj: &'a Json, key: &str) -> Result<&'a Json, String> {
    obj.get(key)
        .ok_or_else(|| format!("BENCHMARK.json: missing `{key}`"))
}

fn text(obj: &Json, key: &str) -> Result<String, String> {
    field(obj, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("BENCHMARK.json: `{key}` must be a string"))
}

fn metrics(root: &Json, key: &str) -> Result<Vec<MetricDecl>, String> {
    field(root, key)?
        .as_arr()
        .ok_or_else(|| format!("BENCHMARK.json: `{key}` must be an array"))?
        .iter()
        .map(|m| {
            Ok(MetricDecl {
                name: text(m, "name")?,
                unit: text(m, "unit")?,
                better: text(m, "better")?,
                bound: m.get("bound").and_then(Json::as_f64),
            })
        })
        .collect()
}

impl Spec {
    pub fn load() -> Result<Spec, String> {
        let root = json::parse(SPEC_JSON).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let workloads = field(&root, "workloads")?
            .as_arr()
            .ok_or("BENCHMARK.json: `workloads` must be an array")?
            .iter()
            .map(|w| {
                Ok(WorkloadDecl {
                    name: text(w, "name")?,
                    why: text(w, "why")?,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(Spec {
            workloads,
            end_to_end: metrics(&root, "end_to_end")?,
            per_layer: metrics(&root, "per_layer")?,
        })
    }

    /// The metrics a run emits: end-to-end untraced, per-layer traced.
    pub fn emitted(&self, traced: bool) -> &[MetricDecl] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }

    /// The `--list` text: workloads, then every metric with its unit and
    /// direction, one per line, tab-separated.
    pub fn listing(&self) -> String {
        let mut out = String::new();
        for w in &self.workloads {
            out.push_str(&format!("workload\t{}\t{}\n", w.name, w.why));
        }
        for (kind, list) in [
            ("end_to_end", &self.end_to_end),
            ("per_layer", &self.per_layer),
        ] {
            for m in list {
                let bound = m.bound.map_or_else(String::new, |b| format!("\tbound={b}"));
                out.push_str(&format!(
                    "{kind}\t{}\t{}\t{}{bound}\n",
                    m.name, m.unit, m.better
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn metric_name_grammar() {
        for ok in ["round_ms.p50", "strongarm.pss.solve_ms", "a", "9-x_y.z"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", ".p50", "_x", "a b", "a/b", "σ", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn declared_names_are_valid_unique_and_bounded() {
        let spec = Spec::load().unwrap();
        let mut seen = BTreeSet::new();
        for w in &spec.workloads {
            assert!(
                valid_name(&w.name) && seen.insert(w.name.clone()),
                "{}",
                w.name
            );
        }
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            assert!(valid_name(&m.name), "{}", m.name);
            assert!(seen.insert(m.name.clone()), "duplicate name {}", m.name);
            assert!(
                matches!(m.better.as_str(), "higher" | "lower"),
                "{}",
                m.name
            );
        }
        for m in &spec.end_to_end {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25, "{}", m.name);
        }
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .unwrap();
        assert_eq!((setup.unit.as_str(), setup.better.as_str()), ("s", "lower"));
        let largest = spec
            .end_to_end
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(largest),
            "setup_s carries the largest bound"
        );
    }

    #[test]
    fn every_declared_metric_is_emitted_and_nothing_else() {
        let spec = Spec::load().unwrap();
        let declared = |list: &[MetricDecl]| -> BTreeSet<String> {
            list.iter().map(|m| m.name.clone()).collect()
        };
        let workloads: BTreeSet<_> = spec.workloads.iter().map(|w| w.name.as_str()).collect();
        assert_eq!(workloads, crate::WORKLOADS.iter().copied().collect());
        // Every workload produces every end-to-end metric itself.
        for w in crate::WORKLOADS {
            let own: BTreeSet<_> = crate::produced(w, false).into_iter().collect();
            assert_eq!(own, declared(&spec.end_to_end), "end-to-end set of {w}");
        }
        // Per-layer metrics belong to the workloads whose layers they
        // measure; together the workloads produce exactly the declared set.
        let union: BTreeSet<String> = crate::WORKLOADS
            .iter()
            .flat_map(|w| crate::produced(w, true))
            .collect();
        assert_eq!(union, declared(&spec.per_layer));
    }
}
